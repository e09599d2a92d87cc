#include "core/strategy.hpp"

#include <utility>

#include "core/session.hpp"
#include "core/strategy_registry.hpp"
#include "util/assert.hpp"

namespace hcs::core {

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kCleanSync: return "CLEAN";
    case StrategyKind::kVisibility: return "CLEAN-WITH-VISIBILITY";
    case StrategyKind::kCloning: return "CLONING";
    case StrategyKind::kSynchronous: return "SYNCHRONOUS";
  }
  return "?";
}

bool strategy_needs_visibility(StrategyKind kind) {
  return StrategyRegistry::instance().get(strategy_name(kind))
      .needs_visibility();
}

std::string SimOutcome::verdict() const {
  if (correct()) return "correct";
  if (captured() && !aborted()) return "captured-degraded";
  if (aborted()) {
    return std::string("failed(") + sim::to_string(abort_reason) + ")";
  }
  return "failed(incomplete)";
}

SimOutcome make_outcome(std::string strategy, unsigned d,
                        const RunRecord& record, sim::EngineKind engine_used) {
  const sim::Metrics& m = record.metrics;
  SimOutcome outcome;
  outcome.strategy = std::move(strategy);
  outcome.dimension = d;
  outcome.team_size = m.agents_spawned;
  outcome.total_moves = m.total_moves;
  outcome.agent_moves = m.moves_of("agent");
  outcome.synchronizer_moves = m.moves_of("synchronizer");
  outcome.makespan = m.makespan;
  outcome.capture_time = record.run.capture_time;
  outcome.recontaminations = m.recontamination_events;
  outcome.all_clean = record.all_clean;
  outcome.clean_region_connected = record.clean_region_connected;
  outcome.all_agents_terminated = record.run.all_terminated;
  outcome.abort_reason = record.run.abort_reason;
  outcome.degradation = record.run.degradation;
  outcome.peak_whiteboard_bits = m.peak_whiteboard_bits;
  outcome.engine_used = engine_used;
  return outcome;
}

SimOutcome run_strategy_sim(std::string_view name, unsigned d,
                            const SimRunConfig& config,
                            sim::Trace* trace_out) {
  Session session(SessionConfig{.dimension = d, .options = config});
  SimOutcome outcome = session.run(name);
  if (trace_out != nullptr) *trace_out = session.take_trace();
  return outcome;
}

}  // namespace hcs::core
