#include "core/cell_key.hpp"

#include <cmath>
#include <utility>

#include "fault/fault_io.hpp"
#include "util/assert.hpp"

namespace hcs {

namespace {

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

CellField invalid(std::string* error, std::string what) {
  fail(error, std::move(what));
  return CellField::kInvalid;
}

/// Json(int64) normalizes non-negative values to kUint, so a kInt member
/// is a negative number and as_uint() on it would abort instead of failing
/// -- the corrupt-input guard every parser in this codebase uses.
bool is_uint(const Json& value) { return value.type() == Json::Type::kUint; }

/// The delay forms: a bound-free kind name as shorthand, or a
/// {kind, lo, hi} object; only the uniform kind reads the bounds.
bool parse_delay(const Json& json, sim::DelaySpec* out, std::string* error) {
  sim::DelaySpec spec;
  if (json.is_string()) {
    if (!sim::from_string(json.as_string(), &spec.kind) ||
        spec.kind == sim::DelaySpec::Kind::kUniform) {
      std::string kinds;
      for (const auto& [kind, name] : sim::kDelayKindNames) {
        if (kind != sim::DelaySpec::Kind::kUniform) {
          kinds += std::string("\"") + name + "\", ";
        }
      }
      return fail(error, "unknown delay shorthand \"" + json.as_string() +
                             "\" (use " + kinds + "or a {kind,lo,hi} object)");
    }
    *out = spec;
    return true;
  }
  if (!json.is_object()) {
    return fail(error, "\"delay\" must be a string shorthand or an object");
  }
  const Json* kind = json.get("kind");
  if (kind == nullptr || !kind->is_string()) {
    return fail(error, "delay object missing string \"kind\"");
  }
  if (!sim::from_string(kind->as_string(), &spec.kind)) {
    return fail(error, "unknown delay kind \"" + kind->as_string() + "\"");
  }
  if (spec.kind == sim::DelaySpec::Kind::kUniform) {
    const Json* lo = json.get("lo");
    const Json* hi = json.get("hi");
    if (lo == nullptr || !lo->is_number() || hi == nullptr ||
        !hi->is_number()) {
      return fail(error, "uniform delay needs numeric \"lo\" and \"hi\"");
    }
    spec.lo = lo->as_double();
    spec.hi = hi->as_double();
    if (!std::isfinite(spec.lo) || !std::isfinite(spec.hi) || spec.lo <= 0.0 ||
        spec.lo >= spec.hi) {
      return fail(error, "uniform delay needs 0 < lo < hi");
    }
  }
  *out = spec;
  return true;
}

}  // namespace

CellKey CellKey::from_options(std::string_view strategy, unsigned dimension,
                              const sim::RunOptions& options) {
  CellKey key;
  key.strategy = std::string(strategy);
  key.dimension = dimension;
  key.seed = options.seed;
  if (!options.delay.is_unit()) key.delay = "sampled";
  key.policy = options.policy;
  key.visibility = options.visibility;
  key.semantics = options.semantics;
  key.max_agent_steps = options.max_agent_steps;
  key.livelock_window = options.livelock_window;
  key.faults = options.faults;
  key.recovery = options.recovery;
  key.engine = options.engine;
  return key;
}

sim::RunOptions CellKey::run_options(const sim::DelaySpec& spec) const {
  HCS_EXPECTS(spec.label() == delay && "delay spec does not match the key");
  sim::RunOptions options;
  options.delay = spec.make();
  options.policy = policy;
  options.seed = seed;
  options.visibility = visibility;
  options.semantics = semantics;
  options.max_agent_steps = max_agent_steps;
  options.livelock_window = livelock_window;
  options.faults = faults;
  options.recovery = recovery;
  options.engine = engine;
  return options;
}

Json CellKey::to_json() const {
  Json id = Json::object();
  id.set("strategy", strategy);
  id.set("dimension", std::uint64_t{dimension});
  id.set("seed", seed);
  id.set("delay", delay);
  id.set("policy", sim::to_string(policy));
  id.set("visibility", visibility);
  id.set("semantics", sim::to_string(semantics));
  id.set("max_agent_steps", max_agent_steps);
  id.set("livelock_window", livelock_window);
  id.set("faults", fault::fault_spec_json(faults));
  id.set("recovery", fault::recovery_config_json(recovery));
  id.set("engine", sim::to_string(engine));
  return id;
}

std::string CellKey::canonical() const { return to_json().dump(); }

std::string CellKey::hash() const { return fnv1a64_hex(canonical()); }

CellField parse_cell_field(std::string_view name, const Json& value,
                           CellKey* key, sim::DelaySpec* delay,
                           std::string* error) {
  if (name == "strategy") {
    if (!value.is_string()) {
      return invalid(error, "cell missing string \"strategy\"");
    }
    key->strategy = value.as_string();
  } else if (name == "dimension") {
    if (!is_uint(value)) {
      return invalid(error, "cell missing unsigned \"dimension\"");
    }
    if (value.as_uint() < 1 || value.as_uint() > 30) {
      return invalid(error, "cell dimension out of range [1, 30]");
    }
    key->dimension = static_cast<unsigned>(value.as_uint());
  } else if (name == "seed") {
    if (!is_uint(value)) return invalid(error, "cell \"seed\" must be unsigned");
    key->seed = value.as_uint();
  } else if (name == "delay") {
    if (!parse_delay(value, delay, error)) return CellField::kInvalid;
    key->delay = delay->label();
  } else if (name == "policy") {
    if (!value.is_string() || !sim::from_string(value.as_string(), &key->policy)) {
      return invalid(error, "unknown wake policy");
    }
  } else if (name == "visibility") {
    if (value.type() != Json::Type::kBool) {
      return invalid(error, "cell \"visibility\" must be a bool");
    }
    key->visibility = value.as_bool();
  } else if (name == "semantics") {
    if (!value.is_string() ||
        !sim::from_string(value.as_string(), &key->semantics)) {
      return invalid(error, "unknown move semantics");
    }
  } else if (name == "max_agent_steps") {
    if (!is_uint(value) || value.as_uint() == 0) {
      return invalid(error, "cell \"max_agent_steps\" must be unsigned > 0");
    }
    key->max_agent_steps = value.as_uint();
  } else if (name == "livelock_window") {
    if (!is_uint(value) || value.as_uint() == 0) {
      return invalid(error, "cell \"livelock_window\" must be unsigned > 0");
    }
    key->livelock_window = value.as_uint();
  } else if (name == "faults") {
    std::string sub;
    if (!fault::parse_fault_spec(value, &key->faults, &sub)) {
      return invalid(error, "cell \"faults\": " + sub);
    }
  } else if (name == "recovery") {
    std::string sub;
    if (!fault::parse_recovery_config(value, &key->recovery, &sub)) {
      return invalid(error, "cell \"recovery\": " + sub);
    }
  } else if (name == "engine") {
    if (!value.is_string() || !sim::from_string(value.as_string(), &key->engine)) {
      return invalid(error, "unknown engine kind");
    }
  } else {
    return CellField::kUnknown;
  }
  return CellField::kParsed;
}

}  // namespace hcs
