// Bridging SearchPlans onto the asynchronous engine.
//
// Converts a planner schedule into per-agent itineraries and executes them
// with sim::replay_itineraries. This gives every plan -- including ones
// with no distributed protocol of their own (naive level sweep, optimal
// tree sweep) -- an asynchronous execution whose contamination bookkeeping
// is maintained independently by sim::Network, cross-validating the plan
// verifier.

#pragma once

#include "core/plan.hpp"
#include "sim/engine.hpp"
#include "sim/macro_program.hpp"
#include "sim/replay.hpp"

namespace hcs::core {

/// Splits a plan into one itinerary per agent (empty itineraries for team
/// members that never move are kept, so team accounting matches).
[[nodiscard]] std::vector<sim::Itinerary> plan_to_itineraries(
    const SearchPlan& plan);

/// Compiles a plan into a time-driven sim::MacroProgram: empty rounds are
/// dropped and the departure tick of a move is its round's dense index, so
/// under the unit delay model the program's ticks are exactly the plan's
/// ideal-time schedule. Steps are grouped per agent, round order preserved.
[[nodiscard]] sim::MacroProgram compile_macro_program(const SearchPlan& plan);

struct ReplayConfig {
  sim::DelayModel delay = sim::DelayModel::unit();
  sim::Engine::WakePolicy policy = sim::Engine::WakePolicy::kFifo;
  std::uint64_t seed = 1;
};

/// Builds a Network over `g`, replays `plan` on it asynchronously, and
/// reports the outcome (moves, safety, completion).
[[nodiscard]] sim::ReplayOutcome replay_plan(const graph::Graph& g,
                                             const SearchPlan& plan,
                                             const ReplayConfig& config = {});

}  // namespace hcs::core
