// layerbench -- the layer-split benchmark of hcs::Session, run::SweepRunner
// and hcsd (see ../LAYERS.md for the workloads and the layer map).
//
//   layerbench --workload clean_h18 --seed 3 --seconds 15 --trace 0
//
// prints a stamp line (host and build), then, as the last line, one JSON
// object: {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones; a per-layer metric of a layer the workload does not exercise is
// reported as 0. Exit status is 1 when any operation or check failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

#ifndef LAYERBENCH_BUILD_TYPE
#define LAYERBENCH_BUILD_TYPE "unknown"
#endif

namespace layerbench {

void add_end_to_end(Result& result, const std::vector<double>& latencies_ms,
                    double wall_s, double setup_s, double peak_rss_mb) {
  result.add("latency_p50_ms", median(latencies_ms), "ms");
  result.add("ops_per_s",
             wall_s > 0 ? static_cast<double>(latencies_ms.size()) / wall_s : 0,
             "1/s");
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb, "MB");
}

namespace {

/// Every per-layer metric, in report order, with its unit.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"graph.build_ms", "ms"},
    {"graph.rss_mb", "MB"},
    {"graph.nodes", "count"},
    {"graph.half_edges", "count"},
    {"sim.network_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.plan_moves", "count"},
    {"core.compile_ms", "ms"},
    {"core.program_steps", "count"},
    {"sim.replay_ms", "ms"},
    {"sim.replay_moves_per_s", "1/s"},
    {"sim.shards", "count"},
    {"sim.verify_ms", "ms"},
    {"session.teardown_ms", "ms"},
    {"session.run_ms", "ms"},
    {"session.residual_ms", "ms"},
    {"run.pass_ms", "ms"},
    {"run.cell_ms.CLEAN", "ms"},
    {"run.cell_ms.CLEAN-WITH-VISIBILITY", "ms"},
    {"run.cell_ms.CLONING", "ms"},
    {"run.cell_ms.SYNCHRONOUS", "ms"},
    {"run.pool_efficiency", "ratio"},
    {"sim.event.moves_per_s", "1/s"},
    {"run.cold_pass_ratio", "ratio"},
    {"serve.parse_us", "us"},
    {"serve.hit_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.p99_ms", "ms"},
    {"serve.miss_ms", "ms"},
    {"serve.exec_ms", "ms"},
    {"serve.miss_overhead_ms", "ms"},
    {"serve.hit_rate", "ratio"},
    {"serve.executions", "count"},
    {"serve.coalesced", "count"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"trace.overhead_pct", "%"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Minimal JSON string escaping for stamp values.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// FNV-1a-64 of `s` as 16 hex digits.
std::string digest(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

void print_stamp(const Options& o, const std::string& commit,
                 const std::string& inputs) {
  const std::string build = LAYERBENCH_BUILD_TYPE;
  if (build != "Release") {
    std::fprintf(stderr,
                 "layerbench: WARNING: %s build -- timings are not "
                 "comparable with Release numbers\n",
                 build.c_str());
  }
  std::printf(
      "{\"stamp\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"small\":%d,\"nproc\":%u,\"cpu\":%s,\"build_type\":%s,"
      "\"release\":%s,\"hcs_obs_off\":%s,\"commit\":%s,\"inputs\":%s}}\n",
      quoted(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.seconds, o.trace ? 1 : 0, o.small ? 1 : 0,
      std::thread::hardware_concurrency(), quoted(cpu_model()).c_str(),
      quoted(build).c_str(), build == "Release" ? "true" : "false",
      hcs::obs::kEnabled ? "false" : "true", quoted(commit).c_str(),
      quoted(digest(inputs)).c_str());
}

void print_result(const Result& r, bool trace, bool setup_only) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : r.metrics) by_name[m.name] = m;
  if (trace && !setup_only) {
    for (const auto& [name, unit] : kPerLayer) {
      by_name.try_emplace(name, Metric{name, 0.0, unit});
    }
  }
  std::string metrics;
  for (const auto& [name, m] : by_name) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ",") + quoted(name) +
               ":{\"value\":" + value + ",\"unit\":" + quoted(m.unit) + "}";
  }
  const bool correct = !r.broken && r.failed == 0 && (setup_only || r.attempted > 0);
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: layerbench --workload clean_h18|vis_h18|sweep_event|"
               "serve_mixed --seed N --seconds S --trace 0|1 [--small] "
               "[--setup-only] [--spans-out PATH] [--commit ID]\n");
  return 2;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  using namespace layerbench;
  Options o;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      o.small = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans-out") {
      o.spans_out = argv[++i];
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.seconds <= 0) return usage();

  Result result;
  if (o.workload == "clean_h18") {
    result = run_session_workload(o, "CLEAN");
  } else if (o.workload == "vis_h18") {
    result = run_session_workload(o, "CLEAN-WITH-VISIBILITY");
  } else if (o.workload == "sweep_event") {
    result = run_sweep_workload(o);
  } else if (o.workload == "serve_mixed") {
    result = run_serve_workload(o);
  } else {
    return usage();
  }
  print_stamp(o, commit, result.inputs);
  print_result(result, o.trace, o.setup_only);
  std::fflush(stdout);
  return !result.broken && result.failed == 0 ? 0 : 1;
}
