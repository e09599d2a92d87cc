#include "fault/fault.hpp"

#include <cstdio>

#include "util/assert.hpp"
#include "util/enum_names.hpp"

namespace hcs::fault {

namespace {

constexpr NameTable<FaultKind, 6> kFaultKindNames{{
    {FaultKind::kCrashAtNode, "crash-at-node"},
    {FaultKind::kCrashInTransit, "crash-in-transit"},
    {FaultKind::kWhiteboardLoss, "whiteboard-loss"},
    {FaultKind::kWhiteboardCorrupt, "whiteboard-corrupt"},
    {FaultKind::kDroppedWake, "dropped-wake"},
    {FaultKind::kLinkStall, "link-stall"},
}};

/// Stateless splitmix64-style mix of the decision coordinates. Each
/// (seed, kind, entity, index) tuple maps to an independent 64-bit draw,
/// so decisions are order-free and identical across runtimes.
std::uint64_t mix(std::uint64_t seed, FaultKind kind, std::uint32_t entity,
                  std::uint64_t index) {
  std::uint64_t z = seed;
  z ^= (static_cast<std::uint64_t>(kind) + 1) * 0x9e3779b97f4a7c15ULL;
  z ^= (static_cast<std::uint64_t>(entity) + 1) * 0xbf58476d1ce4e5b9ULL;
  z ^= (index + 1) * 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// True with probability `rate` under the tuple's deterministic draw.
bool draw(std::uint64_t seed, FaultKind kind, std::uint32_t entity,
          std::uint64_t index, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Top 53 bits -> uniform double in [0, 1), same construction as Rng.
  const double u = static_cast<double>(mix(seed, kind, entity, index) >> 11) *
                   0x1.0p-53;
  return u < rate;
}

std::string rate_part(const char* name, double rate) {
  if (rate <= 0.0) return {};
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s(%g)", name, rate);
  return buf;
}

}  // namespace

const char* to_string(FaultKind kind) {
  return enum_name(kFaultKindNames, kind);
}

bool from_string(std::string_view name, FaultKind* out) {
  return enum_from_name(kFaultKindNames, name, out);
}

bool FaultSpec::empty() const {
  return crash_rate <= 0.0 && wb_loss_rate <= 0.0 && wb_corrupt_rate <= 0.0 &&
         wake_drop_rate <= 0.0 && link_stall_rate <= 0.0 && events.empty();
}

std::string FaultSpec::label() const {
  if (empty()) return "none";
  std::string out;
  const auto append = [&out](const std::string& part) {
    if (part.empty()) return;
    if (!out.empty()) out += "+";
    out += part;
  };
  append(rate_part("crash", crash_rate));
  append(rate_part("wbloss", wb_loss_rate));
  append(rate_part("wbcorrupt", wb_corrupt_rate));
  append(rate_part("wakedrop", wake_drop_rate));
  append(rate_part("stall", link_stall_rate));
  if (!events.empty()) {
    append("events[" + std::to_string(events.size()) + "]");
  }
  return out;
}

FaultSchedule::FaultSchedule(FaultSpec spec)
    : spec_(std::move(spec)), active_(!spec_.empty()) {
  HCS_EXPECTS(spec_.crash_rate >= 0.0 && spec_.crash_rate <= 1.0);
  HCS_EXPECTS(spec_.wb_loss_rate >= 0.0 && spec_.wb_loss_rate <= 1.0);
  HCS_EXPECTS(spec_.wb_corrupt_rate >= 0.0 && spec_.wb_corrupt_rate <= 1.0);
  HCS_EXPECTS(spec_.wake_drop_rate >= 0.0 && spec_.wake_drop_rate <= 1.0);
  HCS_EXPECTS(spec_.link_stall_rate >= 0.0 && spec_.link_stall_rate <= 1.0);
  HCS_EXPECTS(spec_.stall_factor >= 1.0);
}

bool FaultSchedule::listed(FaultKind kind, std::uint32_t entity,
                           std::uint64_t index) const {
  for (const FaultEvent& e : spec_.events) {
    if (e.kind == kind && e.entity == entity && e.index == index) return true;
  }
  return false;
}

bool FaultSchedule::coin(FaultKind kind, std::uint32_t entity,
                         std::uint64_t index, double rate) const {
  if (!active_) return false;
  const bool fired = draw(spec_.seed, kind, entity, index, rate) ||
                     listed(kind, entity, index);
  if (fired) record_fired(kind, entity, index);
  return fired;
}

bool FaultSchedule::crash_at_node(std::uint32_t agent,
                                  std::uint64_t move_index) const {
  if (!active_) return false;
  if (listed(FaultKind::kCrashAtNode, agent, move_index)) {
    record_fired(FaultKind::kCrashAtNode, agent, move_index);
    return true;
  }
  // One crash coin per traversal, then a fair sub-coin picks at-node vs
  // mid-edge, so crash_rate is the total crash-stop probability.
  if (!draw(spec_.seed, FaultKind::kCrashAtNode, agent, move_index,
            spec_.crash_rate)) {
    return false;
  }
  const bool at_node =
      (mix(spec_.seed, FaultKind::kCrashInTransit, agent, move_index) &
       1ULL) == 0;
  if (at_node) record_fired(FaultKind::kCrashAtNode, agent, move_index);
  return at_node;
}

bool FaultSchedule::crash_in_transit(std::uint32_t agent,
                                     std::uint64_t move_index) const {
  if (!active_) return false;
  if (listed(FaultKind::kCrashInTransit, agent, move_index)) {
    record_fired(FaultKind::kCrashInTransit, agent, move_index);
    return true;
  }
  if (!draw(spec_.seed, FaultKind::kCrashAtNode, agent, move_index,
            spec_.crash_rate)) {
    return false;
  }
  const bool in_transit =
      (mix(spec_.seed, FaultKind::kCrashInTransit, agent, move_index) &
       1ULL) == 1;
  if (in_transit) record_fired(FaultKind::kCrashInTransit, agent, move_index);
  return in_transit;
}

bool FaultSchedule::lose_write(std::uint32_t node,
                               std::uint64_t write_index) const {
  return coin(FaultKind::kWhiteboardLoss, node, write_index,
              spec_.wb_loss_rate);
}

bool FaultSchedule::corrupt_write(std::uint32_t node,
                                  std::uint64_t write_index) const {
  return coin(FaultKind::kWhiteboardCorrupt, node, write_index,
              spec_.wb_corrupt_rate);
}

std::int64_t FaultSchedule::corrupt_value(std::uint32_t node,
                                          std::uint64_t write_index) const {
  return static_cast<std::int64_t>(
      mix(spec_.seed ^ 0xc0ffee, FaultKind::kWhiteboardCorrupt, node,
          write_index));
}

bool FaultSchedule::drop_wake(std::uint32_t node,
                              std::uint64_t wake_index) const {
  return coin(FaultKind::kDroppedWake, node, wake_index,
              spec_.wake_drop_rate);
}

bool FaultSchedule::stall_link(std::uint32_t agent,
                               std::uint64_t move_index) const {
  return coin(FaultKind::kLinkStall, agent, move_index,
              spec_.link_stall_rate);
}

std::string DegradationReport::summary() const {
  if (empty()) return "no faults injected";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "injected %llu (crashes %llu, wb %llu, transient %llu); "
                "detected %llu, recovered %llu in %llu round(s); "
                "repair: %llu agents, %llu moves, %.2f time",
                static_cast<unsigned long long>(injected_total()),
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(wb_entries_lost +
                                                wb_entries_corrupted),
                static_cast<unsigned long long>(injected_transient()),
                static_cast<unsigned long long>(crashes_detected +
                                                wb_faults_detected),
                static_cast<unsigned long long>(faults_recovered),
                static_cast<unsigned long long>(recovery_rounds),
                static_cast<unsigned long long>(repair_agents),
                static_cast<unsigned long long>(recovery_moves),
                recovery_time);
  return buf;
}

}  // namespace hcs::fault
