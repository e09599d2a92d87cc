// Shared simulator vocabulary.

#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "graph/graph.hpp"
#include "util/enum_names.hpp"

namespace hcs::sim {

/// Simulated time. The paper measures *ideal time*: one unit per edge
/// traversal (footnote 1). Random/adversarial delay models produce
/// fractional times, so time is a double.
using SimTime = double;

inline constexpr SimTime kTimeZero = 0.0;

/// Dense agent identifier assigned by the engine at spawn.
using AgentId = std::uint32_t;

inline constexpr AgentId kNoAgent = std::numeric_limits<AgentId>::max();

/// Node status in the node-search sense (Section 2 of the paper).
enum class NodeStatus : std::uint8_t {
  kContaminated,  ///< the intruder may be here
  kClean,         ///< an agent passed by; no agent currently present
  kGuarded,       ///< at least one agent is currently on the node
};

[[nodiscard]] constexpr const char* to_string(NodeStatus s) {
  switch (s) {
    case NodeStatus::kContaminated: return "contaminated";
    case NodeStatus::kClean: return "clean";
    case NodeStatus::kGuarded: return "guarded";
  }
  return "?";
}

/// Why a run was cut off before reaching a clean quiescent end. Replaces
/// the old boolean `aborted` flag so sweep output can distinguish a
/// livelocked protocol from a fault the recovery layer could not repair.
enum class AbortReason : std::uint8_t {
  kNone,                ///< ran to quiescence
  kStepCap,             ///< hit the max_agent_steps guard
  kLivelock,            ///< agents kept stepping without making progress
  kFaultUnrecoverable,  ///< recovery retry budget exhausted, still dirty
};

inline constexpr NameTable<AbortReason, 4> kAbortReasonNames{{
    {AbortReason::kNone, "none"},
    {AbortReason::kStepCap, "step-cap"},
    {AbortReason::kLivelock, "livelock"},
    {AbortReason::kFaultUnrecoverable, "fault-unrecoverable"},
}};
[[nodiscard]] constexpr const char* to_string(AbortReason r) {
  return enum_name(kAbortReasonNames, r);
}
[[nodiscard]] constexpr bool from_string(std::string_view name,
                                         AbortReason* out) {
  return enum_from_name(kAbortReasonNames, name, out);
}

/// A protocol's atomic decision for one agent at its node: keep waiting,
/// move to `dest`, or terminate. Shared vocabulary of the decision
/// functions (e.g. the Section 4.2 visibility rule) and both runtimes: the
/// event Engine wraps it in an Action, the ThreadedRuntime executes it
/// directly as a LocalRule result.
struct LocalDecision {
  enum class Kind : std::uint8_t { kWait, kMove, kTerminate };
  Kind kind = Kind::kWait;
  graph::Vertex dest = 0;

  static LocalDecision wait() { return {}; }
  static LocalDecision move(graph::Vertex v) { return {Kind::kMove, v}; }
  static LocalDecision terminate() { return {Kind::kTerminate, 0}; }
};

}  // namespace hcs::sim
