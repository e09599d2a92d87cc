// sweep_event: a closed loop of run::SweepRunner passes over one fixed
// event-engine grid -- the way the paper's tables are produced.
//
// One pass is two SweepRunner::run calls, because SYNCHRONOUS stays out of
// the non-unit-delay cells: paper Section 5 assumes a global clock, and
// with uniform(0.5,2) delays every such cell ends failed(incomplete) with
// recontaminations. Keeping it out makes every cell of the grid expected
// to be correct(), so the failed share starts at 0 and means something:
//
//   main: {CLEAN, CLEAN-WITH-VISIBILITY, CLONING} x H_10..H_12 x 4 seeds
//         x delays {unit, uniform(0.5,2)} x policies {fifo, random}  = 144
//   sync: {SYNCHRONOUS} x H_10..H_12 x 4 seeds x {unit} x {fifo, random} = 24
//
// The seed axis is offset by a draw from --seed; the pool runs 3 workers,
// fewer than the 4 hardware threads this benchmark was tuned on.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/outcome_io.hpp"
#include "oracle.hpp"
#include "run/sweep.hpp"
#include "workloads.hpp"

namespace layerbench {
namespace {

constexpr unsigned kWorkers = 3;

struct Grid {
  hcs::run::SweepSpec main;
  hcs::run::SweepSpec sync;
  [[nodiscard]] std::size_t cells() const {
    return main.num_cells() + sync.num_cells();
  }
};

Grid make_grid(const Options& options) {
  std::uint64_t state = options.seed;
  const std::uint64_t offset = 1 + splitmix64(state) % 1'000'000;
  Grid grid;
  hcs::run::SweepSpec& m = grid.main;
  m.strategies = {"CLEAN", "CLEAN-WITH-VISIBILITY", "CLONING"};
  m.dimensions = options.small ? std::vector<unsigned>{4, 5}
                               : std::vector<unsigned>{10, 11, 12};
  m.seeds = {offset, offset + 1, offset + 2, offset + 3};
  m.delays = {hcs::run::DelaySpec::unit(),
              hcs::run::DelaySpec::uniform(0.5, 2.0)};
  m.policies = {hcs::sim::WakePolicy::kFifo, hcs::sim::WakePolicy::kRandom};
  m.engines = {hcs::sim::EngineKind::kEvent};
  grid.sync = m;
  grid.sync.strategies = {"SYNCHRONOUS"};
  grid.sync.delays = {hcs::run::DelaySpec::unit()};
  return grid;
}

/// The oracle for every grid cell, built once: expectations depend only
/// on (strategy, dimension, unit delay).
class CellOracle {
 public:
  const Expectation& get(const hcs::run::SweepCell& cell) {
    const bool unit = cell.delay.kind == hcs::run::DelaySpec::Kind::kUnit;
    const std::string key =
        cell.strategy + "/" + std::to_string(cell.dimension) + (unit ? "u" : "");
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_
               .emplace(key, expect_for(cell.strategy, cell.dimension, unit,
                                        /*macro_schedule=*/false))
               .first;
    }
    return it->second;
  }

 private:
  std::map<std::string, Expectation> cache_;
};

/// Checks every cell of a finished pass; returns the failures.
std::uint64_t verify_pass(const std::vector<hcs::run::SweepResult>& parts,
                          std::size_t expected_cells, CellOracle& oracle,
                          Result& result) {
  std::uint64_t failures = 0;
  std::size_t cells = 0;
  for (const hcs::run::SweepResult& part : parts) {
    cells += part.cells.size();
    for (const hcs::run::SweepCell& cell : part.cells) {
      if (std::string why = check(cell.outcome, oracle.get(cell));
          !why.empty()) {
        if (failures == 0) {
          std::fprintf(stderr, "layerbench: sweep cell %s seed=%llu %s %s\n",
                       why.c_str(), static_cast<unsigned long long>(cell.seed),
                       cell.delay.label().c_str(),
                       hcs::run::to_string(cell.policy));
        }
        ++failures;
      }
    }
  }
  if (cells != expected_cells) ++failures;
  if (failures != 0) {
    result.fail_op("sweep pass with " + std::to_string(failures) +
                   " failed cells");
  }
  return failures;
}

}  // namespace

Result run_sweep_workload(const Options& options) {
  Result result;
  const Grid grid = make_grid(options);
  for (const hcs::run::SweepSpec* spec : {&grid.main, &grid.sync}) {
    for (std::size_t i = 0; i < spec->num_cells(); ++i) {
      const hcs::run::SweepCell c = hcs::run::sweep_cell_at(*spec, i);
      result.inputs += c.strategy + "/" + std::to_string(c.dimension) + "/" +
                       std::to_string(c.seed) + "/" + c.delay.label() + "/" +
                       hcs::run::to_string(c.policy) + "\n";
    }
  }
  hcs::run::SweepRunner::Config config;
  config.threads = kWorkers;
  const hcs::run::SweepRunner runner(config);
  CellOracle oracle;
  std::unique_ptr<SpanRecorder> rec;
  if (options.trace) rec = std::make_unique<SpanRecorder>(options.workload);

  // One pass; spans only when `traced` (the untraced passes of a traced
  // run are the baseline for trace.overhead_pct).
  const auto pass = [&](std::uint64_t op, bool traced) {
    SpanRecorder* r = traced ? rec.get() : nullptr;
    SpanRecorder::Scope root(r, "run.pass", -1, op);
    std::vector<hcs::run::SweepResult> parts;
    {
      SpanRecorder::Scope s(r, "run.SweepRunner.run", root.id(), op);
      parts.push_back(runner.run(grid.main));
    }
    {
      SpanRecorder::Scope s(r, "run.SweepRunner.run", root.id(), op);
      parts.push_back(runner.run(grid.sync));
    }
    return parts;
  };

  // Set-up: one untimed cold pass (pool start, first touch of every
  // allocator arena), verified like any other.
  const Clock::time_point cold_start = Clock::now();
  const std::vector<hcs::run::SweepResult> cold = pass(0, false);
  const double cold_ms = ms_since(cold_start);
  if (verify_pass(cold, grid.cells(), oracle, result) != 0) {
    result.fail_check("cold pass did not verify");
  }
  {
    // The oracle must reject mutants of a verified unit-delay cell of
    // every strategy in the grid.
    for (const hcs::run::SweepResult& part : cold) {
      for (const hcs::run::SweepCell& cell : part.cells) {
        if (cell.delay.kind != hcs::run::DelaySpec::Kind::kUnit ||
            cell.seed != grid.main.seeds[0] ||
            cell.policy != hcs::sim::WakePolicy::kFifo) {
          continue;
        }
        if (const int n = accepted_mutants(cell.outcome, oracle.get(cell));
            n != 0) {
          result.fail_check(std::to_string(n) + " mutants of " +
                            cell.strategy + " passed the oracle");
        }
      }
    }
  }
  const double setup_s = ms_since(kProcessStart) / 1000.0;
  if (options.setup_only) {
    result.add("setup_s", setup_s, "s");
    return result;
  }

  // Traced runs alternate an untraced and a traced pass.
  std::vector<double> latencies;
  std::vector<double> traced;
  std::uint64_t op = 1;
  const Clock::time_point start = Clock::now();
  while (ms_since(start) < options.seconds * 1000.0) {
    for (int kind = 0; kind < (options.trace ? 2 : 1); ++kind) {
      const bool with_spans = kind == 1;
      ++result.attempted;
      const Clock::time_point t0 = Clock::now();
      const std::vector<hcs::run::SweepResult> parts = pass(op++, with_spans);
      if (verify_pass(parts, grid.cells(), oracle, result) == 0) {
        (with_spans ? traced : latencies).push_back(ms_since(t0));
      }
    }
  }
  const double wall_s = ms_since(start) / 1000.0;
  if (!options.trace) {
    // Over the whole run: which cells share the pool at any moment varies,
    // so one pass's peak does (25-28 MB); the run's maximum settles.
    add_end_to_end(result, latencies, wall_s, setup_s,
                   proc_status_mb("VmHWM"));
    return result;
  }

  // One serial pass -- run_sweep_cell per cell, no pool -- for per-strategy
  // cell cost and pool efficiency. Each serial cell must equal its pooled
  // counterpart from the cold pass (sweeps are thread-count invariant).
  std::map<std::string, std::vector<double>> cell_ms;
  double serial_ms = 0.0;
  double moves = 0.0;
  {
    SpanRecorder::Scope root(rec.get(), "run.serial_pass", -1, op);
    for (std::size_t part = 0; part < 2; ++part) {
      const hcs::run::SweepSpec* spec = part == 0 ? &grid.main : &grid.sync;
      for (std::size_t i = 0; i < spec->num_cells(); ++i) {
        const Clock::time_point t0 = Clock::now();
        hcs::run::SweepCell cell;
        {
          SpanRecorder::Scope s(rec.get(), "run.run_sweep_cell", root.id(),
                                i);
          cell = hcs::run::run_sweep_cell(*spec, i);
        }
        const double ms = ms_since(t0);
        ++result.attempted;
        if (hcs::ckpt::outcome_json(cell.outcome) !=
            hcs::ckpt::outcome_json(cold[part].cells[i].outcome)) {
          result.fail_op("serial cell " + std::to_string(i) +
                         " differs from the pooled pass");
          continue;
        }
        cell_ms[cell.strategy].push_back(ms);
        serial_ms += ms;
        moves += static_cast<double>(cell.outcome.total_moves);
      }
    }
  }

  const double pass_ms = median(latencies);
  result.add("run.pass_ms", pass_ms, "ms");
  for (const std::string s :
       {"CLEAN", "CLEAN-WITH-VISIBILITY", "CLONING", "SYNCHRONOUS"}) {
    result.add("run.cell_ms." + s, median(cell_ms[s]), "ms");
  }
  result.add("run.pool_efficiency",
             pass_ms > 0 ? serial_ms / (kWorkers * pass_ms) : 0, "ratio");
  result.add("sim.event.moves_per_s",
             serial_ms > 0 ? moves / (serial_ms / 1e3) : 0, "1/s");
  result.add("run.cold_pass_ratio", pass_ms > 0 ? cold_ms / pass_ms : 0,
             "ratio");
  result.add("trace.overhead_pct",
             pass_ms > 0 ? 100.0 * (median(traced) - pass_ms) / pass_ms : 0,
             "%");
  if (!options.spans_out.empty() && !rec->write(options.spans_out)) {
    result.fail_check("cannot write spans to " + options.spans_out);
  }
  return result;
}

}  // namespace layerbench
