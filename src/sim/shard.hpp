// sim::ShardedMacroEngine -- the macro executor.
//
// Runs a compiled MacroProgram (sim/macro_program.hpp) on one of exactly
// two paths, chosen from the input:
//
//  * The bitplane fast path (tracing off, fault-free, atomic-arrival
//    hand-over, an implicit hypercube graph). It drops
//    the Network entirely: node state lives in three packed bitplanes
//    (sim/bitplane.hpp) -- guarded / contaminated / visited -- plus a
//    per-node guard counter, updated move-by-move with cache-resident bit
//    ops. The tick calendar replays the event engine's (time, seq) order
//    exactly, and the path bails the moment a vacated node would be
//    exposed to contamination, so its observable results (Metrics,
//    RunResult) are always identical to the event engine's.
//
//  * Everything else -- traced runs, faults, vacate-on-departure,
//    non-hypercube graphs, runs that could trip the abort guards, and
//    fast-path bails -- runs spawn_macro_team on a regular sim::Engine
//    over the untouched Network: the schedule through the full event
//    machinery, byte-for-byte traceable.
//
// The fast path splits the packed node state into 2^k contiguous word
// ranges owned by subcube shards keyed on the top k address bits: node v
// belongs to shard v >> (d - k), so a shard's nodes are exactly a
// (d - k)-subcube occupying a contiguous run of plane words. Under the
// hypercube's XOR adjacency every intra-word dimension (j < 6) and every
// word-local dimension (6 <= j < d - k) stays inside one shard; only the
// top k dimensions cross shard boundaries, and on the packed layout those
// are fixed-offset word reads (bitplane neighbor_union_range) -- never
// writes -- so shards synchronize with plain per-tick barriers.
//
// With more than one shard, each large tick splits into three
// barrier-separated phases:
//
//   P0  agent phase: bucket entries are chunked; each chunk advances its
//       agents' program cursors (an agent appears at most once per tick,
//       so chunks touch disjoint records) and emits an arrival record per
//       entry. Calendar pushes are merged in chunk order after the
//       barrier, reproducing the serial push order exactly.
//   P1  node phase: every shard scans the tick's arrival records in
//       order and applies the guard-count / plane updates for the nodes
//       it owns. Per node, the update sequence is identical to the fused
//       loop's (each node has one owner), so counts, planes and
//       guard-zero transitions are bit-identical at any shard count.
//   P2  exposure phase: each guard release recorded in P1 carries its
//       in-tick sequence number; a release at position K was exposed iff
//       some neighbour is still contaminated at end of tick or was
//       cleaned later in the tick (clean stamps carry (tick, position)).
//       That certificate is exactly the fused loop's transient check,
//       evaluated after the fact; any exposure bails to the event engine.
//
// Small ticks (the CLEAN protocol's token passing averages ~1 event per
// tick), and every tick at shards = 1 (the trivial partition), run the
// fused serial loop over the same state -- byte-identical by
// construction, since per-node update order is what defines the result.
// The calendar is a ring of reusable near-future buckets plus a stable
// far-future heap, replacing a horizon-sized bucket array (3.7M vectors
// for CLEAN at d = 18) with a cache-resident window.
//
// Shard count is an execution detail and never enters hcs::CellKey (run
// identity), checkpoint fingerprints or cache keys.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/bitplane.hpp"
#include "sim/engine.hpp"
#include "sim/macro_program.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/options.hpp"
#include "util/thread_pool.hpp"

namespace hcs::sim {

/// The resolved subcube partition for one run.
struct ShardPlan {
  unsigned shards = 1;       ///< 2^shard_bits contiguous word ranges
  unsigned shard_bits = 0;   ///< top address bits keying shard ownership
  unsigned node_shift = 0;   ///< owner(v) = v >> node_shift
  std::size_t words_per_shard = 0;

  /// Resolves a RunOptions::shards request against a hypercube dimension:
  /// 0 = auto = min(hw_threads, 2^(d-10)); any request is rounded down to
  /// a power of two and clamped so every shard owns at least one plane
  /// word (shards <= 2^(d-6)). Non-hypercube or sub-word planes resolve
  /// to 1, the trivial partition. hw_threads = 0 reads
  /// std::thread::hardware_concurrency().
  [[nodiscard]] static ShardPlan resolve(std::uint32_t requested,
                                         unsigned hc_dim,
                                         unsigned hw_threads = 0);
};

/// The macro executor: the bitplane fast path at any shard count, and
/// sim::Engine + spawn_macro_team for every run that path does not cover.
class ShardedMacroEngine {
 public:
  using RunResult = Engine::RunResult;

  /// The network carries graph, move semantics, trace switch and metrics,
  /// exactly as for Engine. The fast path leaves it untouched and reports
  /// through the accessors below; `cfg` must be macro_eligible().
  ShardedMacroEngine(Network& net, RunOptions cfg);

  ShardedMacroEngine(const ShardedMacroEngine&) = delete;
  ShardedMacroEngine& operator=(const ShardedMacroEngine&) = delete;

  /// Executes the program to completion. Call once per engine.
  RunResult run(const MacroProgram& program);

  // Post-run accessors. After an event-engine run these forward to the
  // Network; after a fast run they answer from the bitplane state, so
  // callers read one surface regardless of path.
  [[nodiscard]] const Metrics& metrics() const;
  [[nodiscard]] bool all_clean() const;
  [[nodiscard]] bool clean_region_connected() const;
  /// Whether the last run completed on the bitplane fast path.
  [[nodiscard]] bool used_fast_path() const { return fast_completed_; }
  /// Whether the last run completed on the fast path with more than one
  /// shard (the barrier-phased replay).
  [[nodiscard]] bool used_sharded_path() const {
    return fast_completed_ && plan_.shards > 1;
  }
  /// The resolved partition (shards == 1 is the trivial partition).
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }

 private:
  enum class FState : std::uint8_t { kRunnable, kInTransit, kSleeping, kDone };

  struct FRec {
    std::uint32_t cur = 0;
    std::uint32_t end = 0;
    graph::Vertex at = 0;
    graph::Vertex moving_to = 0;
    FState state = FState::kRunnable;
  };

  /// One arrival record: the inter-phase hand-off from P0 to P1/P2.
  /// Sleep wake-ups occupy a bucket position but carry no node update;
  /// they are recorded as {kNoArrival, ...} so positions keep the serial
  /// in-tick ordering.
  struct Arrival {
    graph::Vertex from;
    graph::Vertex to;
  };
  static constexpr graph::Vertex kNoArrival = ~graph::Vertex{0};

  /// A guard count that hit zero in P1: the node and the in-tick arrival
  /// position of the release, for the P2 exposure certificate.
  struct Release {
    graph::Vertex node;
    std::uint32_t pos;
  };

  struct ShardScratch {
    std::vector<std::pair<std::uint32_t, AgentId>> pushes;  // P0 chunk
    std::vector<Release> releases;                          // P1
    std::uint64_t cleans = 0;
    bool exposed = false;
  };

  /// Near-future ring + stable far-future heap over tick buckets.
  class Calendar {
   public:
    explicit Calendar(std::size_t ring_ticks);
    void push(std::uint32_t time, AgentId agent);
    /// Advances past cur to the next nonempty tick; fills *bucket in the
    /// event engine's (time, seq) order. Returns false when drained.
    bool next(std::uint32_t* time, std::vector<AgentId>* bucket);

   private:
    struct Far {
      std::uint32_t time;
      std::uint64_t seq;
      AgentId agent;
    };
    std::vector<std::vector<AgentId>> ring_;
    std::vector<Far> heap_;
    std::size_t ring_pending_ = 0;
    std::uint64_t push_seq_ = 0;
    std::uint32_t cur_ = 0;
  };

  /// Returns true when the fast path ran to completion; false = it
  /// bailed (abort-guard screen or exposure) with the Network untouched.
  bool run_fast(const MacroProgram& prog, RunResult* result);
  [[nodiscard]] bool fast_region_connected() const;
  void parallel_shards(const std::function<void(std::size_t)>& body);

  Network* net_;
  RunOptions cfg_;
  ShardPlan plan_;
  std::unique_ptr<ThreadPool> pool_;

  // Fast-path state (valid when fast_completed_). cleaned_tick_,
  // contam_start_, clean_stamp_, arrivals_ and scratch_ serve the phase
  // split only and stay empty at shards = 1.
  bool fast_completed_ = false;
  Bitplane guarded_;
  Bitplane contaminated_;
  Bitplane visited_;
  Bitplane cleaned_tick_;
  Bitplane contam_start_;
  Bitplane frontier_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> clean_stamp_;
  std::vector<Arrival> arrivals_;
  std::vector<ShardScratch> scratch_;
  Metrics fast_metrics_;
};

}  // namespace hcs::sim
