#include "ckpt/outcome_io.hpp"

#include "fault/fault_io.hpp"

namespace hcs::ckpt {

namespace {

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

bool get_uint(const Json& json, const char* key, std::uint64_t* out,
              std::string* error) {
  const Json* member = json.get(key);
  if (member == nullptr || member->type() != Json::Type::kUint) {
    return fail(error,
                std::string("missing non-negative integer \"") + key + "\"");
  }
  *out = member->as_uint();
  return true;
}

bool get_double(const Json& json, const char* key, double* out,
                std::string* error) {
  const Json* member = json.get(key);
  if (member == nullptr || !member->is_number()) {
    return fail(error, std::string("missing number \"") + key + "\"");
  }
  *out = member->as_double();
  return true;
}

bool get_bool(const Json& json, const char* key, bool* out,
              std::string* error) {
  const Json* member = json.get(key);
  if (member == nullptr || member->type() != Json::Type::kBool) {
    return fail(error, std::string("missing bool \"") + key + "\"");
  }
  *out = member->as_bool();
  return true;
}

bool get_string(const Json& json, const char* key, std::string* out,
                std::string* error) {
  const Json* member = json.get(key);
  if (member == nullptr || !member->is_string()) {
    return fail(error, std::string("missing string \"") + key + "\"");
  }
  *out = member->as_string();
  return true;
}

}  // namespace

Json outcome_json(const core::SimOutcome& outcome) {
  Json j = Json::object();
  j.set("strategy", outcome.strategy);
  j.set("dimension", static_cast<std::uint64_t>(outcome.dimension));
  j.set("team_size", outcome.team_size);
  j.set("total_moves", outcome.total_moves);
  j.set("agent_moves", outcome.agent_moves);
  j.set("synchronizer_moves", outcome.synchronizer_moves);
  j.set("makespan", outcome.makespan);
  j.set("capture_time", outcome.capture_time);
  j.set("recontaminations", outcome.recontaminations);
  j.set("all_clean", outcome.all_clean);
  j.set("clean_region_connected", outcome.clean_region_connected);
  j.set("all_agents_terminated", outcome.all_agents_terminated);
  j.set("abort_reason", sim::to_string(outcome.abort_reason));
  j.set("peak_whiteboard_bits", outcome.peak_whiteboard_bits);
  j.set("degradation", fault::degradation_report_json(outcome.degradation));
  j.set("engine_used", sim::to_string(outcome.engine_used));
  return j;
}

bool parse_outcome(const Json& json, core::SimOutcome* out,
                   std::string* error) {
  if (!json.is_object()) return fail(error, "outcome is not an object");
  core::SimOutcome outcome;
  std::uint64_t dimension = 0;
  std::string abort_reason;
  std::string engine_used;
  if (!get_string(json, "strategy", &outcome.strategy, error) ||
      !get_uint(json, "dimension", &dimension, error) ||
      !get_uint(json, "team_size", &outcome.team_size, error) ||
      !get_uint(json, "total_moves", &outcome.total_moves, error) ||
      !get_uint(json, "agent_moves", &outcome.agent_moves, error) ||
      !get_uint(json, "synchronizer_moves", &outcome.synchronizer_moves,
                error) ||
      !get_double(json, "makespan", &outcome.makespan, error) ||
      !get_double(json, "capture_time", &outcome.capture_time, error) ||
      !get_uint(json, "recontaminations", &outcome.recontaminations, error) ||
      !get_bool(json, "all_clean", &outcome.all_clean, error) ||
      !get_bool(json, "clean_region_connected",
                &outcome.clean_region_connected, error) ||
      !get_bool(json, "all_agents_terminated",
                &outcome.all_agents_terminated, error) ||
      !get_string(json, "abort_reason", &abort_reason, error) ||
      !get_uint(json, "peak_whiteboard_bits", &outcome.peak_whiteboard_bits,
                error) ||
      !get_string(json, "engine_used", &engine_used, error)) {
    return false;
  }
  if (dimension > 64) return fail(error, "dimension out of range");
  outcome.dimension = static_cast<unsigned>(dimension);
  if (!sim::from_string(abort_reason, &outcome.abort_reason)) {
    return fail(error, "unknown abort reason \"" + abort_reason + "\"");
  }
  if (!sim::from_string(engine_used, &outcome.engine_used)) {
    return fail(error, "unknown engine kind \"" + engine_used + "\"");
  }
  const Json* degradation = json.get("degradation");
  if (degradation == nullptr) {
    return fail(error, "missing \"degradation\" object");
  }
  if (!fault::parse_degradation_report(*degradation, &outcome.degradation,
                                       error)) {
    return false;
  }
  *out = std::move(outcome);
  return true;
}

}  // namespace hcs::ckpt
