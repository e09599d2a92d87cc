#include "fuzz/cell.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "core/strategy_registry.hpp"
#include "fault/fault_io.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "util/assert.hpp"
#include "util/enum_names.hpp"

namespace hcs::fuzz {

namespace {

constexpr NameTable<Expect, 5> kExpectNames{{
    {Expect::kAuto, "auto"},
    {Expect::kCorrect, "correct"},
    {Expect::kCaptured, "captured"},
    {Expect::kPrincipled, "principled"},
    {Expect::kSafety, "safety"},
}};

constexpr NameTable<FailureKind, 7> kFailureKindNames{{
    {FailureKind::kUnexpectedAbort, "unexpected-abort"},
    {FailureKind::kCaptureFailure, "capture-failure"},
    {FailureKind::kMonotonicityViolation, "monotonicity-violation"},
    {FailureKind::kStrandedAgents, "stranded-agents"},
    {FailureKind::kAccountingMismatch, "accounting-mismatch"},
    {FailureKind::kTraceInvariant, "trace-invariant"},
    {FailureKind::kDifferentialDivergence, "differential-divergence"},
}};

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Everything one engine execution yields that the oracle judges.
struct Executed {
  std::string strategy_name;
  core::RunRecord record;
  sim::Trace trace;
  std::vector<sim::InvariantViolation> trace_violations;
};

/// Mirrors Session::run (core/session.cpp) with two fuzz-specific hooks:
/// the topology may be rebuilt as explicit compressed adjacency (the
/// differential oracle) and fired fault decisions may be recorded (the minimizer's
/// concretization input).
Executed execute(const CellSpec& spec, const core::Strategy& strategy,
                 bool implicit_topology,
                 std::vector<fault::FaultEvent>* fired) {
  graph::Graph g = strategy.build_graph(spec.dimension);
  if (!implicit_topology) g = g.without_topology_hint();

  sim::Network net(g, /*homebase=*/0);
  net.set_move_semantics(spec.semantics);
  net.trace().enable(true);

  sim::Engine engine(net, spec.run_options());
  if (fired != nullptr) engine.fault_schedule().set_fired_sink(fired);
  strategy.spawn_team(engine, spec.dimension);

  Executed out;
  out.strategy_name = strategy.name();
  out.record = {engine.run(), net.metrics(), net.all_clean(),
                net.clean_region_connected()};
  out.trace_violations = sim::check_trace_invariants(
      g, net.trace(), /*run_completed=*/!out.record.run.aborted());
  out.trace = std::move(net.trace());
  return out;
}

void check_contract(const CellSpec& spec, const core::SimOutcome& o,
                    std::vector<Failure>& failures) {
  const Expect expect = spec.resolved_expect();
  const auto add = [&failures](FailureKind kind, std::string detail) {
    failures.push_back({kind, std::move(detail)});
  };

  switch (expect) {
    case Expect::kAuto: HCS_ASSERT(false && "resolved_expect returned kAuto");
      break;
    case Expect::kCorrect:
      if (o.recontaminations > 0) {
        add(FailureKind::kMonotonicityViolation,
            std::to_string(o.recontaminations) +
                " recontamination(s) under the correct contract");
      }
      if (o.aborted()) {
        add(FailureKind::kUnexpectedAbort,
            std::string("correct-contract run aborted: ") +
                sim::to_string(o.abort_reason));
      } else if (!o.all_clean) {
        add(FailureKind::kCaptureFailure,
            "correct-contract run reached quiescence with " +
                std::to_string(o.recontaminations) +
                " recontamination(s) and contaminated nodes remaining");
      }
      if (!o.aborted() && !o.all_agents_terminated) {
        add(FailureKind::kStrandedAgents,
            "correct-contract run left agents blocked at quiescence");
      }
      if (o.degradation.injected_total() != 0) {
        add(FailureKind::kAccountingMismatch,
            "correct-contract run reports " +
                std::to_string(o.degradation.injected_total()) +
                " injected fault(s)");
      }
      break;

    case Expect::kCaptured:
      if (o.aborted()) {
        add(FailureKind::kUnexpectedAbort,
            std::string("recoverable workload aborted: ") +
                sim::to_string(o.abort_reason));
      } else if (!o.captured()) {
        add(FailureKind::kCaptureFailure,
            "recoverable workload ended without capturing (verdict " +
                o.verdict() + ")");
      }
      if (o.degradation.faults_recovered !=
          o.degradation.crashes_detected + o.degradation.wb_faults_detected) {
        add(FailureKind::kAccountingMismatch,
            "recovered " + std::to_string(o.degradation.faults_recovered) +
                " != detected " +
                std::to_string(o.degradation.crashes_detected +
                               o.degradation.wb_faults_detected));
      }
      break;

    case Expect::kPrincipled: {
      // With recovery disabled, a persistent fault legitimately ends the
      // run incomplete-but-honest (all agents done, network reported
      // dirty); with recovery on, that state must instead surface as
      // kFaultUnrecoverable or stranded waiters.
      const bool honest_incomplete =
          !spec.recovery.enabled && o.degradation.injected_persistent() > 0;
      const bool principled =
          o.captured() ||
          o.abort_reason == sim::AbortReason::kFaultUnrecoverable ||
          o.degradation.agents_stranded > 0 || honest_incomplete;
      if (o.abort_reason == sim::AbortReason::kStepCap ||
          o.abort_reason == sim::AbortReason::kLivelock) {
        add(FailureKind::kUnexpectedAbort,
            std::string("run hit the ") + sim::to_string(o.abort_reason) +
                " guard under a bounded workload");
      } else if (!principled) {
        add(FailureKind::kCaptureFailure,
            "run claimed quiescence without capture, unrecoverability, or "
            "stranded waiters (verdict " + o.verdict() + ")");
      }
      break;
    }

    case Expect::kSafety:
      // The vacate-on-departure ablation is documented to break
      // monotonicity and capture (docs/MODEL.md section 3); only the
      // structural checks below (trace invariants, differential oracle)
      // judge such a cell.
      break;
  }
}

/// First divergence between two executions' metrics and run results, or
/// empty when identical.
std::string compare_records(const core::RunRecord& a,
                            const core::RunRecord& b) {
  const auto num = [](const char* name, std::uint64_t x, std::uint64_t y) {
    return std::string(name) + " " + std::to_string(x) + " vs " +
           std::to_string(y);
  };
  const sim::Metrics& m = a.metrics;
  const sim::Metrics& n = b.metrics;
  if (m.agents_spawned != n.agents_spawned) {
    return num("agents_spawned", m.agents_spawned, n.agents_spawned);
  }
  if (m.total_moves != n.total_moves) {
    return num("total_moves", m.total_moves, n.total_moves);
  }
  if (m.moves_by_role != n.moves_by_role) return "moves_by_role differ";
  if (m.makespan != n.makespan) return "makespan differs";
  if (m.peak_whiteboard_bits != n.peak_whiteboard_bits) {
    return num("peak_whiteboard_bits", m.peak_whiteboard_bits,
               n.peak_whiteboard_bits);
  }
  if (m.nodes_visited != n.nodes_visited) {
    return num("nodes_visited", m.nodes_visited, n.nodes_visited);
  }
  if (m.recontamination_events != n.recontamination_events) {
    return num("recontaminations", m.recontamination_events,
               n.recontamination_events);
  }
  if (m.agents_crashed != n.agents_crashed) {
    return num("agents_crashed", m.agents_crashed, n.agents_crashed);
  }
  if (m.events_processed != n.events_processed) {
    return num("events_processed", m.events_processed, n.events_processed);
  }
  if (m.agent_steps != n.agent_steps) {
    return num("agent_steps", m.agent_steps, n.agent_steps);
  }
  if (a.run.all_terminated != b.run.all_terminated) {
    return "all_terminated differs";
  }
  if (a.run.abort_reason != b.run.abort_reason) return "abort_reason differs";
  if (a.run.capture_time != b.run.capture_time) return "capture_time differs";
  return {};
}

/// First divergence between the implicit-topology run and the generic
/// oracle run -- records, then traces -- or empty when byte-identical.
std::string compare_runs(const Executed& a, const Executed& b) {
  if (std::string divergence = compare_records(a.record, b.record);
      !divergence.empty()) {
    return divergence;
  }
  const auto& ea = a.trace.events();
  const auto& eb = b.trace.events();
  if (ea.size() != eb.size()) {
    return "trace length " + std::to_string(ea.size()) + " vs " +
           std::to_string(eb.size());
  }
  for (std::size_t i = 0; i < ea.size(); ++i) {
    const sim::TraceEvent& x = ea[i];
    const sim::TraceEvent& y = eb[i];
    if (!(x.time == y.time && x.kind == y.kind && x.agent == y.agent &&
          x.node == y.node && x.other == y.other && x.detail == y.detail)) {
      return "trace diverges at event " + std::to_string(i);
    }
  }
  return {};
}

/// The engine oracle (the fifth differential): the strategy's compiled
/// macro program run by sim::Engine driving ScheduleAgents versus
/// sim::ShardedMacroEngine at the cell's shard count. Both legs run
/// untraced -- a traced macro run *is* the event engine -- so the macro
/// leg takes its bitplane fast path wherever that applies, and metrics,
/// run result and the safety verdicts must agree. Returns the first
/// divergence, or empty when the executors agree or the cell is not
/// macro-eligible (non-fifo wake policy, non-unit delay, or a strategy
/// without a compiled program).
std::string macro_engine_divergence(const CellSpec& spec,
                                    const core::Strategy& strategy) {
  const sim::RunOptions cfg = spec.run_options();
  if (!sim::macro_eligible(cfg)) return {};
  const std::optional<sim::MacroProgram> program =
      strategy.macro_program(spec.dimension);
  if (!program.has_value()) return {};

  const graph::Graph g = strategy.build_graph(spec.dimension);
  core::RunRecord event;
  {
    sim::Network net(g, /*homebase=*/0);
    net.set_move_semantics(spec.semantics);
    sim::Engine engine(net, cfg);
    sim::spawn_macro_team(engine, *program);
    event = {engine.run(), net.metrics(), net.all_clean(),
             net.clean_region_connected()};
  }
  core::RunRecord macro;
  {
    sim::Network net(g, /*homebase=*/0);
    net.set_move_semantics(spec.semantics);
    sim::ShardedMacroEngine engine(net, cfg);
    macro = {engine.run(*program), engine.metrics(), engine.all_clean(),
             engine.clean_region_connected()};
  }

  const std::string prefix = "shards=" + std::to_string(spec.shards) + ": ";
  const std::string divergence = compare_records(event, macro);
  if (!divergence.empty()) return prefix + divergence;
  if (event.all_clean != macro.all_clean) return prefix + "all_clean differs";
  if (event.clean_region_connected != macro.clean_region_connected) {
    return prefix + "clean_region_connected differs";
  }
  return {};
}

}  // namespace

const char* to_string(Expect expect) {
  return enum_name(kExpectNames, expect);
}

bool expect_from_string(std::string_view name, Expect* out) {
  return enum_from_name(kExpectNames, name, out);
}

const char* to_string(FailureKind kind) {
  return enum_name(kFailureKindNames, kind);
}

bool failure_kind_from_string(std::string_view name, FailureKind* out) {
  return enum_from_name(kFailureKindNames, name, out);
}

Expect CellSpec::resolved_expect() const {
  if (expect != Expect::kAuto) return expect;
  // Under vacate-on-departure no strategy that sends a node's last agent
  // into a contaminated neighbour can be monotone (docs/MODEL.md section
  // 3): only the structural oracles judge these cells.
  if (semantics == sim::MoveSemantics::kVacateOnDeparture) {
    return Expect::kSafety;
  }
  // A strategy that declares it needs lock-step unit-time links (the
  // Section 5 synchronous variant) makes no behavioural promises under
  // other delay models.
  if (delay.kind != run::DelaySpec::Kind::kUnit) {
    const core::Strategy* s =
        core::StrategyRegistry::instance().find(strategy);
    if (s != nullptr && s->required_capabilities().synchronous) {
      return Expect::kSafety;
    }
  }
  if (faults.empty()) return Expect::kCorrect;
  // Crash-only workloads with recovery on are the acceptance scenario the
  // soak suite pins: they must still capture.
  const bool crash_only_rates =
      faults.wb_loss_rate <= 0.0 && faults.wb_corrupt_rate <= 0.0 &&
      faults.wake_drop_rate <= 0.0 && faults.link_stall_rate <= 0.0;
  bool crash_only_events = true;
  for (const fault::FaultEvent& e : faults.events) {
    if (e.kind != fault::FaultKind::kCrashAtNode &&
        e.kind != fault::FaultKind::kCrashInTransit) {
      crash_only_events = false;
      break;
    }
  }
  if (crash_only_rates && crash_only_events && recovery.enabled &&
      faults.crash_rate <= 0.1) {
    return Expect::kCaptured;
  }
  return Expect::kPrincipled;
}

Json CellSpec::to_json() const {
  Json delay_json = Json::object();
  delay_json.set("kind", sim::to_string(delay.kind));
  delay_json.set("lo", delay.lo);
  delay_json.set("hi", delay.hi);

  Json j = Json::object();
  j.set("strategy", strategy);
  j.set("dimension", static_cast<std::uint64_t>(dimension));
  j.set("seed", seed);
  j.set("delay", std::move(delay_json));
  j.set("policy", sim::to_string(policy));
  j.set("semantics", sim::to_string(semantics));
  j.set("faults", fault::fault_spec_json(faults));
  j.set("recovery", fault::recovery_config_json(recovery));
  j.set("max_agent_steps", max_agent_steps);
  j.set("livelock_window", livelock_window);
  j.set("expect", to_string(expect));
  j.set("differential", differential);
  // Serialized only off its default so every pre-engine-axis artifact's
  // canonical form (and therefore its content hash) is unchanged.
  if (engine != sim::EngineKind::kEvent) {
    j.set("engine", sim::to_string(engine));
  }
  // Same append-only rule for the shard axis.
  if (shards != 1) j.set("shards", std::uint64_t{shards});
  return j;
}

CellKey CellSpec::key() const {
  CellKey key;
  key.strategy = strategy;
  key.dimension = dimension;
  key.seed = seed;
  key.delay = delay.label();
  key.policy = policy;
  key.semantics = semantics;
  key.max_agent_steps = max_agent_steps;
  key.livelock_window = livelock_window;
  key.faults = faults;
  key.recovery = recovery;
  key.engine = engine;
  return key;
}

sim::RunOptions CellSpec::run_options() const {
  sim::RunOptions options = key().run_options(delay);
  options.visibility =
      core::StrategyRegistry::instance().get(strategy).needs_visibility();
  options.shards = shards;
  return options;
}

std::string CellSpec::content_hash() const {
  Json id = Json::object();
  id.set("cell", key().to_json());
  id.set("expect", to_string(expect));
  id.set("differential", differential);
  // Shard count is oracle configuration, not run identity (it never enters
  // key()), but distinct shard draws are distinct corpus entries; omitted
  // at the default so pre-shard-axis hashes are unchanged.
  if (shards != 1) id.set("shards", std::uint64_t{shards});
  return fnv1a64_hex(id.dump());
}

bool parse_cell_spec(const Json& json, CellSpec* out, std::string* error) {
  if (!json.is_object()) return fail(error, "cell spec is not an object");
  // Every field to_json() writes must be present: a replayable cell pins
  // its whole configuration rather than leaning on defaults.
  for (const char* name :
       {"strategy", "dimension", "seed", "delay", "policy", "semantics",
        "faults", "recovery", "max_agent_steps", "livelock_window", "expect",
        "differential"}) {
    if (json.get(name) == nullptr) {
      return fail(error, std::string("cell missing \"") + name + "\"");
    }
  }

  CellSpec spec;
  CellKey key;
  for (const auto& [name, value] : json.members()) {
    if (name == "expect") {
      if (!value.is_string() ||
          !expect_from_string(value.as_string(), &spec.expect)) {
        return fail(error, "unknown expect level");
      }
    } else if (name == "differential") {
      if (value.type() != Json::Type::kBool) {
        return fail(error, "cell \"differential\" must be a bool");
      }
      spec.differential = value.as_bool();
    } else if (name == "shards") {
      // Absent in pre-shard-axis artifacts, which ran serial only.
      if (value.type() != Json::Type::kUint || value.as_uint() == 0) {
        return fail(error, "cell \"shards\" must be unsigned >= 1");
      }
      spec.shards = static_cast<std::uint32_t>(value.as_uint());
    } else if (parse_cell_field(name, value, &key, &spec.delay, error) ==
               CellField::kInvalid) {
      return false;
    }
  }

  if (key.dimension > 24) return fail(error, "cell dimension out of range");
  // The writer emits the bounds for every delay kind; re-read them so a
  // bound-free kind's bounds round-trip byte-identically too.
  const Json* delay = json.get("delay");
  const Json* lo = delay->get("lo");
  const Json* hi = delay->get("hi");
  if (lo == nullptr || !lo->is_number() || hi == nullptr || !hi->is_number()) {
    return fail(error, "delay missing lo/hi");
  }
  spec.delay.lo = lo->as_double();
  spec.delay.hi = hi->as_double();

  spec.strategy = std::move(key.strategy);
  spec.dimension = key.dimension;
  spec.seed = key.seed;
  spec.policy = key.policy;
  spec.semantics = key.semantics;
  spec.faults = std::move(key.faults);
  spec.recovery = key.recovery;
  spec.max_agent_steps = key.max_agent_steps;
  spec.livelock_window = key.livelock_window;
  // Absent in pre-engine-axis artifacts, which ran kEvent only.
  spec.engine = key.engine;
  *out = std::move(spec);
  return true;
}

std::string failure_signature(const std::vector<Failure>& fs) {
  std::vector<std::string> kinds;
  kinds.reserve(fs.size());
  for (const Failure& f : fs) kinds.emplace_back(to_string(f.kind));
  std::sort(kinds.begin(), kinds.end());
  kinds.erase(std::unique(kinds.begin(), kinds.end()), kinds.end());
  std::string out;
  for (const std::string& k : kinds) {
    if (!out.empty()) out += '+';
    out += k;
  }
  return out;
}

std::string CellResult::signature() const {
  return failure_signature(failures);
}

CellResult run_cell(const CellSpec& spec) {
  const core::Strategy* strategy =
      core::StrategyRegistry::instance().find(spec.strategy);
  HCS_EXPECTS(strategy != nullptr && "unknown strategy in fuzz cell");

  CellResult result;
  std::vector<fault::FaultEvent> fired_raw;
  const Executed primary = execute(spec, *strategy, /*implicit_topology=*/true,
                                   &fired_raw);
  result.outcome = core::make_outcome(primary.strategy_name, spec.dimension,
                                      primary.record, sim::EngineKind::kEvent);

  // Dedup fired decisions (a decision point may be queried more than once)
  // while keeping first-firing order.
  std::set<std::tuple<std::uint8_t, std::uint32_t, std::uint64_t>> seen;
  for (const fault::FaultEvent& e : fired_raw) {
    if (seen.insert({static_cast<std::uint8_t>(e.kind), e.entity, e.index})
            .second) {
      result.fired.push_back(e);
    }
  }

  check_contract(spec, result.outcome, result.failures);
  for (const sim::InvariantViolation& v : primary.trace_violations) {
    result.failures.push_back({FailureKind::kTraceInvariant,
                               v.id + ": " + v.message});
  }

  if (spec.differential) {
    const Executed oracle =
        execute(spec, *strategy, /*implicit_topology=*/false, nullptr);
    const std::string divergence = compare_runs(primary, oracle);
    if (!divergence.empty()) {
      result.failures.push_back(
          {FailureKind::kDifferentialDivergence,
           "implicit vs generic topology: " + divergence});
    }
  }

  if (spec.engine != sim::EngineKind::kEvent) {
    const std::string divergence = macro_engine_divergence(spec, *strategy);
    if (!divergence.empty()) {
      result.failures.push_back({FailureKind::kDifferentialDivergence,
                                 "macro vs event engine: " + divergence});
    }
  }
  return result;
}

}  // namespace hcs::fuzz
