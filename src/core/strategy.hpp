// One-call run harness: execute a named strategy end-to-end on the
// asynchronous simulator and collect the paper's three cost measures plus
// the safety verdicts. Used by tests, benches, and the examples so that
// "run Algorithm X on H_d and measure it" is a single line.
//
// Strategies resolve through the string-keyed StrategyRegistry
// (strategy_registry.hpp): the four paper strategies and the two baseline
// sweeps are pre-registered, and anything added to the registry runs here
// without changes. StrategyKind remains as a convenient enum handle for
// the paper's own four algorithms.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/engine.hpp"
#include "sim/options.hpp"

namespace hcs::core {

enum class StrategyKind : std::uint8_t {
  kCleanSync,      ///< Algorithm 1 (Section 3)
  kVisibility,     ///< Algorithm 2 (Section 4)
  kCloning,        ///< Section 5 cloning variant
  kSynchronous,    ///< Section 5 synchronous variant
};

/// Registry name of a paper strategy ("CLEAN", "CLEAN-WITH-VISIBILITY",
/// "CLONING", "SYNCHRONOUS").
[[nodiscard]] const char* strategy_name(StrategyKind kind);

/// Does the strategy need Engine visibility (neighbour status reads)?
[[nodiscard]] bool strategy_needs_visibility(StrategyKind kind);

struct SimOutcome {
  std::string strategy;
  unsigned dimension = 0;
  std::uint64_t team_size = 0;        ///< agents spawned (incl. clones)
  std::uint64_t total_moves = 0;
  std::uint64_t agent_moves = 0;      ///< non-synchronizer moves
  std::uint64_t synchronizer_moves = 0;
  double makespan = 0.0;              ///< == ideal time under unit delays
  double capture_time = -1.0;
  std::uint64_t recontaminations = 0; ///< 0 for a monotone run
  bool all_clean = false;
  bool clean_region_connected = false;
  bool all_agents_terminated = false;
  /// Why the run was cut off before quiescence (step cap, livelock, or an
  /// unrecoverable fault); kNone for a completed run. When set, the
  /// counters above are the partial totals.
  sim::AbortReason abort_reason = sim::AbortReason::kNone;
  std::uint64_t peak_whiteboard_bits = 0;
  /// Fault accounting for the run; all zeros when no faults were injected.
  fault::DegradationReport degradation;
  /// Which executor actually ran (kAuto resolves to one of the other two
  /// before the run starts, so this is never kAuto).
  sim::EngineKind engine_used = sim::EngineKind::kEvent;

  [[nodiscard]] bool aborted() const {
    return abort_reason != sim::AbortReason::kNone;
  }

  /// Theorems 1/6-style verdict for the run.
  [[nodiscard]] bool correct() const {
    return all_clean && recontaminations == 0 && all_agents_terminated &&
           !aborted();
  }

  /// The intruder was captured (the network went clean), even if the run
  /// degraded (crashed agents, stranded waiters, repair overhead).
  [[nodiscard]] bool captured() const { return all_clean; }

  /// One-word verdict for reports: "correct", "captured-degraded" (clean
  /// but with fault overhead or stranded agents), or "failed(<reason>)".
  [[nodiscard]] std::string verdict() const;
};

/// What one finished execution leaves behind, read off the event engine's
/// Network or the ShardedMacroEngine (both expose the same accessors).
struct RunRecord {
  sim::Engine::RunResult run;
  sim::Metrics metrics;
  bool all_clean = false;
  bool clean_region_connected = false;
};

/// The one SimOutcome assembly (Session and the fuzz oracle both report
/// through it): the paper's cost measures and safety verdicts of `record`
/// for `strategy` (registry casing) on H_d, run by `engine_used`.
[[nodiscard]] SimOutcome make_outcome(std::string strategy, unsigned d,
                                      const RunRecord& record,
                                      sim::EngineKind engine_used);

/// Historical name for the unified run-option struct. The old standalone
/// SimRunConfig's field order is a subsequence of sim::RunOptions, so
/// existing designated initializers compile unchanged.
using SimRunConfig = sim::RunOptions;

/// Builds the strategy's topology (H_d for all but the tree-only baseline),
/// spawns its team, runs the engine to quiescence, and reports. `name` is a
/// StrategyRegistry key (case-insensitive); unknown names abort. When
/// `trace_out` is non-null the full event trace is moved into it.
/// Implemented as a thin forwarder over hcs::Session (core/session.hpp),
/// the preferred entry point.
[[nodiscard]] SimOutcome run_strategy_sim(std::string_view name, unsigned d,
                                          const SimRunConfig& config = {},
                                          sim::Trace* trace_out = nullptr);

// The deprecated StrategyKind enum overload of run_strategy_sim was
// removed after one release (DESIGN.md, "Deprecation policy"); call the
// string overload with strategy_name(kind), or hcs::Session.

}  // namespace hcs::core
