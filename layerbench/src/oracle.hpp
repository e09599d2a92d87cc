// The closed-form oracle every timed operation is checked against.
//
// An Expectation lists what the paper's theorems (core/formulas) pin for
// one (strategy, dimension, delay) cell; check() rejects any outcome that
// is not correct() or misses one of them. Nothing here reuses the code
// path under test to decide what is right, with one documented exception:
// the CLEAN synchronizer's move count has only an upper bound in the
// paper (Theorem 3, component 3), so it is taken from the planner's
// counting mode (measure_clean_sync), which materializes no plan.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/strategy.hpp"

namespace layerbench {

struct Expectation {
  std::string strategy;
  unsigned dimension = 0;
  std::optional<std::uint64_t> team_size;
  std::optional<std::uint64_t> agent_moves;
  std::optional<std::uint64_t> total_moves;
  std::optional<std::uint64_t> synchronizer_moves;
  std::optional<double> makespan;
};

/// What the paper fixes for `strategy` on H_d:
///  * CLEAN: team = clean_team_size(d), agent moves = clean_agent_moves(d)
///    (Theorems 2-3), synchronizer and total moves from measure_clean_sync.
///    With `macro_schedule` set (the macro executor replays the planner's
///    schedule, which moves one agent per round) and unit delays, also
///    makespan = total moves. The event-engine protocol overlaps worker
///    and synchronizer moves, so its makespan is left open.
///  * CLEAN-WITH-VISIBILITY and SYNCHRONOUS: team = visibility_team_size,
///    total = agent moves = visibility_moves (Theorems 5 and 8), and under
///    unit delays makespan = visibility_time(d) = d (Theorem 7).
///  * CLONING: team = cloning_agents(d), moves = cloning_moves(d), and
///    under unit delays makespan = d.
[[nodiscard]] Expectation expect_for(const std::string& strategy, unsigned d,
                                     bool unit_delay, bool macro_schedule);

/// Empty when `outcome` is correct() and meets every expectation;
/// otherwise a one-line reason.
[[nodiscard]] std::string check(const hcs::core::SimOutcome& outcome,
                                const Expectation& expect);

/// Feeds check() mutants of a verified outcome -- team +-1, agent and
/// total moves +-1, makespan +1 and one recontamination -- and returns how
/// many it wrongly accepted (0 when the oracle is sound). `good` itself
/// must pass; otherwise the count includes it. Mutants of fields the
/// expectation leaves open (makespan under random delays) are skipped.
[[nodiscard]] int accepted_mutants(const hcs::core::SimOutcome& good,
                                   const Expectation& expect);

}  // namespace layerbench
