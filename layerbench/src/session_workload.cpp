// clean_h18 / vis_h18: one caller in a closed loop of hcs::Session runs.
//
// Untraced, the loop times Session::run from the call to a verified
// result. Traced, it alternates an untraced Session::run with a
// decomposed run that repeats Session::run_impl's macro path step by step
// through public calls -- build_graph, Network, plan, compile, sharded
// replay, verify, scope exit -- with a span around each. The decomposed
// outcome must equal the Session outcome field for field, so the split
// cannot drift away from the path callers actually take.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/outcome_io.hpp"
#include "core/clean_sync.hpp"
#include "core/clean_visibility.hpp"
#include "core/replay.hpp"
#include "core/session.hpp"
#include "core/strategy_registry.hpp"
#include "oracle.hpp"
#include "sim/shard.hpp"
#include "workloads.hpp"

namespace layerbench {
namespace {

using hcs::core::SimOutcome;

/// One decomposed run: per-stage wall times (ms) and layer counts.
struct Stages {
  double graph = 0, network = 0, plan = 0, compile = 0, replay = 0,
         verify = 0, teardown = 0, total = 0;
  double graph_rss_mb = 0, nodes = 0, half_edges = 0, plan_moves = 0,
         program_steps = 0, shards = 0;
};

/// Runs `body` inside a span named `name` and returns the span's length.
template <typename Body>
double stage(SpanRecorder& rec, const char* name, int parent,
             std::uint64_t op, Body&& body) {
  int id = -1;
  {
    SpanRecorder::Scope s(&rec, name, parent, op);
    id = s.id();
    body();
  }
  return rec.ms(id);
}

/// Session::run_impl's macro path, one public call per span.
SimOutcome decomposed_run(const hcs::Session& session,
                          const hcs::core::Strategy& strategy,
                          SpanRecorder& rec, std::uint64_t op, Stages* st) {
  namespace core = hcs::core;
  namespace sim = hcs::sim;
  const unsigned d = session.config().dimension;
  const sim::RunOptions& options = session.config().options;
  const bool clean = std::string(strategy.name()) == "CLEAN";

  std::optional<hcs::graph::Graph> g;
  std::optional<sim::Network> net;
  std::optional<core::SearchPlan> plan;
  std::optional<sim::MacroProgram> program;
  std::optional<sim::ShardedMacroEngine> engine;
  sim::Engine::RunResult run;
  SimOutcome outcome;

  const int root = rec.open("session.decomposed", -1, op);
  const double rss0 = proc_status_mb("VmRSS");
  st->graph = stage(rec, "graph.build_graph", root, op,
                    [&] { g.emplace(strategy.build_graph(d)); });
  st->graph_rss_mb = proc_status_mb("VmRSS") - rss0;
  st->network = stage(rec, "sim.Network", root, op, [&] {
    net.emplace(*g, /*homebase=*/0);
    net->set_move_semantics(options.semantics);
    net->trace().enable(options.trace);
  });
  st->plan = stage(rec, "core.plan", root, op, [&] {
    plan.emplace(clean ? core::plan_clean_sync(d)
                       : core::plan_clean_visibility(d));
  });
  st->compile = stage(rec, "core.compile_macro_program", root, op,
                      [&] { program.emplace(core::compile_macro_program(*plan)); });
  st->replay = stage(rec, "sim.ShardedMacroEngine.run", root, op, [&] {
    sim::RunOptions engine_config = options;
    engine_config.visibility =
        options.visibility || strategy.needs_visibility();
    engine.emplace(*net, engine_config);
    run = engine->run(*program);
  });
  st->verify = stage(rec, "sim.verify", root, op, [&] {
    const sim::Metrics& m = engine->metrics();
    outcome.strategy = strategy.name();
    outcome.dimension = d;
    outcome.team_size = m.agents_spawned;
    outcome.total_moves = m.total_moves;
    outcome.agent_moves = m.moves_of("agent");
    outcome.synchronizer_moves = m.moves_of("synchronizer");
    outcome.makespan = m.makespan;
    outcome.capture_time = run.capture_time;
    outcome.recontaminations = m.recontamination_events;
    outcome.all_clean = engine->all_clean();
    outcome.clean_region_connected = engine->clean_region_connected();
    outcome.all_agents_terminated = run.all_terminated;
    outcome.abort_reason = run.abort_reason;
    outcome.degradation = run.degradation;
    outcome.peak_whiteboard_bits = m.peak_whiteboard_bits;
    outcome.engine_used = sim::EngineKind::kMacro;
  });
  st->nodes = static_cast<double>(g->num_nodes());
  st->half_edges = 2.0 * static_cast<double>(g->num_edges());
  st->plan_moves = static_cast<double>(plan->total_moves());
  st->program_steps = static_cast<double>(program->steps.size());
  st->shards = static_cast<double>(engine->plan().shards);
  // Session's scope exit: the engine dies with its block and the plan with
  // the macro_program() temporary, then program, network and graph.
  st->teardown = stage(rec, "session.teardown", root, op, [&] {
    engine.reset();
    plan.reset();
    program.reset();
    net.reset();
    g.reset();
  });
  rec.close(root);
  st->total = rec.ms(root);
  return outcome;
}

/// Median of one Stages field across runs.
template <typename Field>
double median_of(const std::vector<Stages>& runs, Field field) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const Stages& s : runs) v.push_back(s.*field);
  return median(std::move(v));
}

}  // namespace

Result run_session_workload(const Options& options,
                            const std::string& strategy_name) {
  Result result;
  const unsigned d = options.small ? 10 : 18;
  const hcs::core::Strategy& strategy =
      hcs::core::StrategyRegistry::instance().get(strategy_name);

  hcs::SessionConfig config;
  config.dimension = d;
  config.options.engine = hcs::sim::EngineKind::kAuto;
  config.options.shards = 0;
  config.options.seed = options.seed;
  hcs::Session session(config);
  result.inputs = strategy_name + " H_" + std::to_string(d) + " seed " +
                  std::to_string(options.seed);

  // Set-up: the oracle's reference values, then one untimed warm-up run
  // (first touch of the allocator's arenas), itself verified and used to
  // prove the oracle rejects mutated outcomes.
  const Expectation expect = expect_for(strategy.name(), d,
                                        /*unit_delay=*/true,
                                        /*macro_schedule=*/true);
  const SimOutcome warm = session.run(strategy_name);
  if (const std::string why = check(warm, expect); !why.empty()) {
    result.fail_check("warm-up run: " + why);
  }
  if (warm.engine_used != hcs::sim::EngineKind::kMacro) {
    result.fail_check("engine=auto did not resolve to the macro executor");
  }
  if (const int n = accepted_mutants(warm, expect); n != 0) {
    result.fail_check(std::to_string(n) +
                      " mutated outcomes passed the oracle");
  }
  const double setup_s = ms_since(kProcessStart) / 1000.0;
  // Peak memory of one run in a fresh process. Later runs start from
  // whatever the allocator kept of earlier ones, so their peaks wander
  // (152-178 MB for CLEAN-WITH-VISIBILITY) where this one does not.
  const double peak_rss_mb = proc_status_mb("VmHWM");
  if (options.setup_only) {
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  std::unique_ptr<SpanRecorder> rec;
  if (options.trace) rec = std::make_unique<SpanRecorder>(options.workload);

  std::vector<double> latencies;
  std::vector<Stages> stages;
  const Clock::time_point start = Clock::now();
  while (ms_since(start) < options.seconds * 1000.0) {
    ++result.attempted;
    const Clock::time_point t0 = Clock::now();
    const SimOutcome outcome = session.run(strategy_name);
    if (const std::string why = check(outcome, expect); !why.empty()) {
      result.fail_op(why);
      continue;
    }
    latencies.push_back(ms_since(t0));
    if (rec == nullptr) continue;

    ++result.attempted;
    Stages st;
    const SimOutcome split =
        decomposed_run(session, strategy, *rec, stages.size(), &st);
    if (hcs::ckpt::outcome_json(split) != hcs::ckpt::outcome_json(outcome)) {
      result.fail_op("decomposed run differs from Session::run");
      continue;
    }
    stages.push_back(st);
  }
  const double wall_s = ms_since(start) / 1000.0;

  if (!options.trace) {
    add_end_to_end(result, latencies, wall_s, setup_s, peak_rss_mb);
    return result;
  }

  const double run_ms = median(latencies);
  const double graph = median_of(stages, &Stages::graph);
  const double network = median_of(stages, &Stages::network);
  const double plan = median_of(stages, &Stages::plan);
  const double compile = median_of(stages, &Stages::compile);
  const double replay = median_of(stages, &Stages::replay);
  const double verify = median_of(stages, &Stages::verify);
  const double teardown = median_of(stages, &Stages::teardown);
  const double traced = median_of(stages, &Stages::total);
  const double moves = static_cast<double>(*expect.total_moves);

  result.add("graph.build_ms", graph, "ms");
  result.add("graph.rss_mb", median_of(stages, &Stages::graph_rss_mb), "MB");
  result.add("graph.nodes", median_of(stages, &Stages::nodes), "count");
  result.add("graph.half_edges", median_of(stages, &Stages::half_edges),
             "count");
  result.add("sim.network_ms", network, "ms");
  result.add("core.plan_ms", plan, "ms");
  result.add("core.plan_moves", median_of(stages, &Stages::plan_moves),
             "count");
  result.add("core.compile_ms", compile, "ms");
  result.add("core.program_steps", median_of(stages, &Stages::program_steps),
             "count");
  result.add("sim.replay_ms", replay, "ms");
  result.add("sim.replay_moves_per_s", replay > 0 ? moves / (replay / 1e3) : 0,
             "1/s");
  result.add("sim.shards", median_of(stages, &Stages::shards), "count");
  result.add("sim.verify_ms", verify, "ms");
  result.add("session.teardown_ms", teardown, "ms");
  result.add("session.run_ms", run_ms, "ms");
  result.add("session.residual_ms",
             run_ms - (graph + network + plan + compile + replay + verify +
                       teardown),
             "ms");
  result.add("trace.overhead_pct",
             run_ms > 0 ? 100.0 * (traced - run_ms) / run_ms : 0, "%");
  if (!options.spans_out.empty() && !rec->write(options.spans_out)) {
    result.fail_check("cannot write spans to " + options.spans_out);
  }
  return result;
}

}  // namespace layerbench
