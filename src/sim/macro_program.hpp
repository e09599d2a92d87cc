// sim::MacroProgram -- the compiled, time-driven move schedule that the
// macro executor (sim/shard.hpp) replays.
//
// Every agent's traversals carry explicit departure ticks (dense round
// indices under the unit delay model), so running one needs no
// whiteboards, no wake lists and no per-step protocol logic.
// spawn_macro_team() turns a program into one ScheduleAgent per program
// agent on a regular discrete-event Engine: the schedule executed through
// the full event machinery, byte-for-byte traceable. That is both the
// macro executor's own path for every run its bitplane fast path does not
// cover and the oracle the macro differential suite compares against.
//
// Eligibility: macro execution assumes the deterministic FIFO wake policy
// and the unit delay model (the program's ticks ARE the ideal-time
// schedule). macro_eligible() checks exactly that; Session uses it to
// resolve EngineKind::kAuto.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/options.hpp"

namespace hcs::sim {

/// A compiled time-driven schedule: per-agent traversal lists with
/// explicit departure ticks. Produced from a SearchPlan by
/// core::compile_macro_program (empty rounds dropped, departure tick =
/// dense round index); every agent starts at the homebase.
struct MacroProgram {
  struct Step {
    std::uint32_t time = 0;  ///< departure tick (arrival at time + 1)
    graph::Vertex from = 0;
    graph::Vertex to = 0;
  };

  /// Steps grouped per agent, time-ascending within each agent.
  std::vector<Step> steps;
  /// Agent i owns steps [agent_offsets[i], agent_offsets[i+1]).
  std::vector<std::uint32_t> agent_offsets{0};
  /// Role per agent ("synchronizer", "agent", ...), for per-role metrics.
  std::vector<std::string> roles;
  graph::Vertex homebase = 0;
  /// Number of dense ticks; every departure time is < horizon.
  std::uint32_t horizon = 0;

  [[nodiscard]] std::size_t num_agents() const {
    return agent_offsets.empty() ? 0 : agent_offsets.size() - 1;
  }
  [[nodiscard]] std::uint64_t total_moves() const { return steps.size(); }
  [[nodiscard]] const std::string& role(std::size_t agent) const;
};

/// True when `cfg` permits macro execution at all: deterministic FIFO
/// wake policy and the unit delay model. (Tracing, faults and the vacate
/// ablation are fine -- they just take the event-engine path.)
[[nodiscard]] inline bool macro_eligible(const RunOptions& cfg) {
  return cfg.policy == WakePolicy::kFifo && cfg.delay.is_unit();
}

/// Spawns one time-driven ScheduleAgent per program agent into `engine`
/// (at the program's homebase). The caller runs the engine to quiescence.
/// Returns the number of agents spawned.
std::uint64_t spawn_macro_team(Engine& engine, const MacroProgram& program);

}  // namespace hcs::sim
