// The benchmark's four workloads. Each runs set-up, then a closed loop of
// timed operations for Options::seconds, verifies every operation, and
// fills a Result: the end-to-end metrics when untraced, the per-layer
// metrics when traced (Options::trace).

#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace layerbench {

/// clean_h18 / vis_h18: repeated hcs::Session runs of `strategy` on H_18
/// (H_10 in small mode) with engine=auto and shards=0.
[[nodiscard]] Result run_session_workload(const Options& options,
                                          const std::string& strategy);

/// sweep_event: repeated run::SweepRunner passes over one fixed
/// event-engine grid.
[[nodiscard]] Result run_sweep_workload(const Options& options);

/// serve_mixed: an in-process serve::Server on loopback driven by two
/// closed-loop serve::Client connections.
[[nodiscard]] Result run_serve_workload(const Options& options);

/// Adds latency_p50_ms, ops_per_s, setup_s and peak_rss_mb. `latencies_ms` holds one entry per verified timed
/// operation; `wall_s` is the timed window's wall time. `peak_rss_mb` is
/// the process's VmHWM after the cold operation of set-up (Session
/// workloads) or at the end of the timed window (sweep and serve).
void add_end_to_end(Result& result, const std::vector<double>& latencies_ms,
                    double wall_s, double setup_s, double peak_rss_mb);

}  // namespace layerbench
