// serve_mixed: an in-process serve::Server on loopback, driven by two
// closed-loop serve::Client connections (hcsd's callers -- sweep scripts,
// fuzz campaigns -- each block on their reply).
//
// A hot set of 256 cells (the four paper strategies x H_4..H_8, seeds and
// order drawn from --seed) is warmed during set-up. Every 64th request of
// a client names a cell the server has never seen: CLONING,
// CLEAN-WITH-VISIBILITY or CLEAN (rotating 1:2:1) at H_10 on the event
// engine with a fresh seed. Cache hits then set the median and real
// executions the 99th percentile.
//
// Verification: a hit must replay the warm-up body byte for byte; a fresh
// reply must pass the closed-form oracle, and a seeded sample of fresh
// replies must equal a direct Session::run of the same cell. Error,
// overloaded and transport failures are failed operations, never fast
// ones.

#include <sched.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ckpt/outcome_io.hpp"
#include "core/session.hpp"
#include "oracle.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace layerbench {
namespace {

constexpr std::size_t kHotCells = 256;
constexpr unsigned kClients = 2;
/// CPUs the whole workload (clients and server) is confined to, and the
/// server's execution threads. With four CPUs for two closed loops, idle
/// CPUs sleep between requests and every hand-off pays a cross-CPU wake-up:
/// the hit median then tracked the host's load (41-63 us across five runs)
/// rather than the program. On two CPUs it stayed at 29 us.
constexpr int kCpus = 2;
/// A cache budget far above the hot set (~0.3 MB) but bounded, so fresh
/// cells are evicted and memory does not grow with throughput.
constexpr std::size_t kCacheBytes = 4u << 20;
/// Latency samples pre-touched per client, so that peak RSS does not
/// depend on how many requests a run completes.
constexpr std::size_t kSampleReserve = std::size_t{1} << 20;
constexpr std::uint64_t kFreshEvery = 64;
/// Fresh replies compared against a direct Session::run, per client.
constexpr std::size_t kSamplesPerClient = 12;

const char* const kHotStrategies[] = {"CLEAN", "CLEAN-WITH-VISIBILITY",
                                      "CLONING", "SYNCHRONOUS"};
/// Fresh cells cycle through this rotation. At a 1/64 fresh share the
/// 99th percentile is the 36th percentile of fresh latencies; on this
/// workload CLONING runs ~1 ms, CLEAN-WITH-VISIBILITY ~3 ms and CLEAN
/// 5-8 ms, so weighting them 1:2:1 puts it well inside the
/// CLEAN-WITH-VISIBILITY cluster instead of on a boundary between two
/// strategies, where a few samples more or less would move it by 3x.
const char* const kFreshRotation[] = {"CLONING", "CLEAN-WITH-VISIBILITY",
                                      "CLEAN", "CLEAN-WITH-VISIBILITY"};
constexpr std::size_t kRotation = std::size(kFreshRotation);

std::string run_line(const char* strategy, unsigned d, std::uint64_t seed) {
  return std::string("{\"id\":1,\"op\":\"run\",\"cell\":{\"strategy\":\"") +
         strategy + "\",\"dimension\":" + std::to_string(d) +
         ",\"seed\":" + std::to_string(seed) + ",\"engine\":\"event\"}}";
}

/// The body bytes of an ok reply, or an empty view.
std::string_view reply_body(std::string_view reply) {
  if (reply.find("\"ok\":true") == std::string_view::npos) return {};
  const std::size_t pos = reply.find("\"body\":");
  if (pos == std::string_view::npos || reply.back() != '}') return {};
  return reply.substr(pos + 7, reply.size() - (pos + 7) - 1);
}

/// Parses a result body's outcome and runs the oracle on it.
std::string check_body(std::string_view body, const Expectation& expect) {
  std::string error;
  const std::optional<hcs::Json> doc = hcs::Json::parse(body, &error);
  const hcs::Json* outcome = doc ? doc->get("outcome") : nullptr;
  hcs::core::SimOutcome parsed;
  if (outcome == nullptr ||
      !hcs::ckpt::parse_outcome(*outcome, &parsed, &error)) {
    return "unparseable result body: " + error;
  }
  return check(parsed, expect);
}

/// The body Service::execute would produce for `line`, computed by a
/// direct Session::run. *exec_ms receives the Session::run time.
std::string direct_body(const std::string& line, double* exec_ms) {
  hcs::serve::Request req;
  std::string error;
  if (!hcs::serve::parse_request(line, &req, &error)) return "";
  hcs::SessionConfig config;
  config.dimension = req.key.dimension;
  hcs::sim::RunOptions& o = config.options;
  o.delay = req.delay.make();
  o.policy = req.key.policy;
  o.seed = req.key.seed;
  o.visibility = req.key.visibility;
  o.semantics = req.key.semantics;
  o.max_agent_steps = req.key.max_agent_steps;
  o.livelock_window = req.key.livelock_window;
  o.faults = req.key.faults;
  o.recovery = req.key.recovery;
  o.engine = req.key.engine;
  o.shards = 0;
  hcs::Session session(config);
  const Clock::time_point t0 = Clock::now();
  const hcs::core::SimOutcome outcome = session.run(req.key.strategy);
  *exec_ms = ms_since(t0);
  hcs::Json body = hcs::Json::object();
  body.set("key", req.key.to_json());
  body.set("outcome", hcs::ckpt::outcome_json(outcome));
  return body.dump_compact();
}

struct HotCell {
  std::string line;
  std::string body;  ///< warm-up reply body every hit must replay
};

/// What one client thread saw during a window.
struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::vector<float> all_ms;     ///< verified requests (pre-touched)
  std::vector<double> hit_us;    ///< verified hot requests (traced runs)
  std::vector<double> fresh_ms;  ///< verified fresh requests
  std::vector<std::pair<std::string, std::string>> samples;  ///< line, body
};

class ServeBench {
 public:
  ServeBench(const Options& options)
      : options_(options),
        hot_dims_(options.small ? std::vector<unsigned>{3, 4}
                                : std::vector<unsigned>{4, 5, 6, 7, 8}),
        fresh_dim_(options.small ? 6 : 10) {
    std::uint64_t state = options.seed;
    fresh_base_ = (std::uint64_t{1} << 40) +
                  ((splitmix64(state) & 0xffffffULL) << 16);
    for (const char* s : kFreshRotation) {
      fresh_expect_.push_back(expect_for(s, fresh_dim_, true, false));
    }
    // Hot set: strategy i % 4, dimension cycling H_4..H_8, a seeded seed,
    // then a seeded shuffle of the order.
    for (std::size_t i = 0; i < kHotCells; ++i) {
      const char* s = kHotStrategies[i % 4];
      const unsigned d = hot_dims_[(i / 4) % hot_dims_.size()];
      hot_.push_back(
          {run_line(s, d, 1 + splitmix64(state) % 1'000'000'000ULL), ""});
      hot_expect_.push_back(expect_for(s, d, true, false));
    }
    for (std::size_t i = kHotCells - 1; i > 0; --i) {
      const std::size_t j = splitmix64(state) % (i + 1);
      std::swap(hot_[i], hot_[j]);
      std::swap(hot_expect_[i], hot_expect_[j]);
    }
  }

  /// Starts the server and warms the hot set over kClients connections
  /// (one chain of round trips per connection, as in the timed window).
  /// False on any failure.
  bool setup(Result& result) {
    hcs::serve::ServerConfig config;
    config.service.threads = kCpus;
    config.service.cache_bytes = kCacheBytes;
    server_ = std::make_unique<hcs::serve::Server>(config);
    std::string error;
    if (!server_->start(&error)) {
      result.fail_check("server start: " + error);
      return false;
    }
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, &failures] { failures[c] = warm(c); });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& why : failures) {
      if (!why.empty()) {
        result.fail_check("warm-up: " + why);
        return false;
      }
    }
    return true;
  }

  /// Runs the closed loop for `seconds` on kClients connections. Hit
  /// latencies are kept separately only with `keep_hits` (traced runs).
  std::vector<ClientLog> window(double seconds, SpanRecorder* rec,
                                bool keep_hits) {
    std::vector<ClientLog> logs(kClients);
    for (ClientLog& log : logs) {
      log.all_ms.resize(kSampleReserve);
      log.all_ms.clear();
    }
    std::vector<std::thread> threads;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back(
          [this, c, deadline, rec, keep_hits, &logs] {
            client_loop(c, deadline, rec, keep_hits, logs[c]);
          });
    }
    for (std::thread& t : threads) t.join();
    return logs;
  }

  hcs::serve::Server& server() { return *server_; }
  /// The hot lines in request order and the fresh-seed base.
  std::string inputs() const {
    std::string out = "fresh seeds from " + std::to_string(fresh_base_) + "\n";
    for (const HotCell& h : hot_) out += h.line + "\n";
    return out;
  }
  const std::vector<HotCell>& hot() const { return hot_; }

 private:
  /// Requests every kClients-th hot cell, starting at `c`, verifies each
  /// reply against the oracle and keeps its body. Empty on success.
  std::string warm(unsigned c) {
    hcs::serve::Client client;
    std::string error;
    if (!client.connect("127.0.0.1", server_->port(), &error)) {
      return "connect: " + error;
    }
    std::string reply;
    for (std::size_t i = c; i < hot_.size(); i += kClients) {
      if (!client.request(hot_[i].line, &reply)) return "transport failure";
      const std::string_view body = reply_body(reply);
      if (body.empty()) return "error reply: " + reply;
      if (std::string why = check_body(body, hot_expect_[i]); !why.empty()) {
        return why;
      }
      hot_[i].body = std::string(body);
    }
    return {};
  }

  void client_loop(unsigned c, Clock::time_point deadline, SpanRecorder* rec,
                   bool keep_hits, ClientLog& log) {
    hcs::serve::Client client;
    std::string error;
    if (!client.connect("127.0.0.1", server_->port(), &error)) {
      ++log.attempted;
      ++log.failed;
      log.first_failure = "connect: " + error;
      return;
    }
    std::uint64_t rng = options_.seed * 0x2545f4914f6cdd1dULL + c + 1;
    std::string reply;
    for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
      const bool fresh = i % kFreshEvery == kFreshEvery - 1;
      std::size_t which = 0;
      std::string fresh_line;
      if (fresh) {
        which = (i / kFreshEvery + c) % kRotation;
        fresh_line = run_line(kFreshRotation[which], fresh_dim_,
                              fresh_base_ + fresh_count_.fetch_add(1));
      } else {
        which = splitmix64(rng) % hot_.size();
      }
      const std::string& line = fresh ? fresh_line : hot_[which].line;
      ++log.attempted;
      const Clock::time_point t0 = Clock::now();
      bool sent = false;
      {
        SpanRecorder::Scope span(rec, "serve.Client.request", -1,
                                 (std::uint64_t{c} << 32) | i);
        sent = client.request(line, &reply);
      }
      if (!sent) {
        ++log.failed;
        log.first_failure = "transport failure";
        return;
      }
      const std::string_view body = reply_body(reply);
      std::string why;
      if (body.empty()) {
        why = "error reply: " + reply;
      } else if (!fresh) {
        if (body != hot_[which].body) why = "hit replayed different bytes";
      } else {
        why = check_body(body, fresh_expect_[which]);
      }
      const double ms = ms_since(t0);
      if (!why.empty()) {
        if (log.failed++ == 0) log.first_failure = why;
        continue;
      }
      log.all_ms.push_back(static_cast<float>(ms));
      if (fresh) {
        log.fresh_ms.push_back(ms);
        if (log.samples.size() < kSamplesPerClient && splitmix64(rng) % 4 == 0) {
          log.samples.emplace_back(line, std::string(body));
        }
      } else if (keep_hits) {
        log.hit_us.push_back(ms * 1000.0);
      }
    }
  }

  const Options& options_;
  std::vector<unsigned> hot_dims_;
  unsigned fresh_dim_;
  std::uint64_t fresh_base_ = 0;
  std::atomic<std::uint64_t> fresh_count_{0};
  std::vector<HotCell> hot_;
  std::vector<Expectation> hot_expect_;
  std::vector<Expectation> fresh_expect_;
  std::unique_ptr<hcs::serve::Server> server_;
};

/// A window's client logs, merged.
struct Merged {
  std::vector<double> all_ms;
  std::vector<double> hit_us;
  std::vector<double> fresh_ms;
  std::vector<std::pair<std::string, std::string>> samples;
};

/// Folds a window's logs into the result; returns the merged samples.
Merged merge(std::vector<ClientLog> logs, Result& result) {
  Merged all;
  for (ClientLog& log : logs) {
    result.attempted += log.attempted;
    if (log.failed != 0) result.fail_op(log.first_failure, log.failed);
    all.all_ms.insert(all.all_ms.end(), log.all_ms.begin(), log.all_ms.end());
    all.hit_us.insert(all.hit_us.end(), log.hit_us.begin(), log.hit_us.end());
    all.fresh_ms.insert(all.fresh_ms.end(), log.fresh_ms.begin(),
                        log.fresh_ms.end());
    for (auto& s : log.samples) all.samples.push_back(std::move(s));
  }
  return all;
}

/// Median per-call time, in microseconds, of `call` over the hot lines
/// (21 rounds of one call per hot cell).
template <typename Call>
double per_call_us(const std::vector<HotCell>& hot, Call&& call) {
  std::vector<double> rounds;
  for (int r = 0; r < 21; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < hot.size(); ++i) call(i);
    rounds.push_back(us_since(t0) / static_cast<double>(hot.size()));
  }
  return median(std::move(rounds));
}

/// Confines the calling thread, and every thread it starts later, to the
/// first kCpus CPUs it may run on. False when there are fewer.
bool confine_to_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  int taken = 0;
  for (std::size_t cpu = 0;
       cpu < static_cast<std::size_t>(CPU_SETSIZE) && taken < kCpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &mask);
      ++taken;
    }
  }
  return taken == kCpus && sched_setaffinity(0, sizeof mask, &mask) == 0;
}

}  // namespace

Result run_serve_workload(const Options& options) {
  Result result;
  if (!confine_to_cpus()) {
    result.fail_check("cannot confine the workload to " +
                      std::to_string(kCpus) + " CPUs");
    return result;
  }
  ServeBench bench(options);
  result.inputs = bench.inputs();
  if (!bench.setup(result)) return result;
  {
    // Oracle self-check on a fresh-strategy cell: a direct unit-delay
    // CLEAN-WITH-VISIBILITY run at the fresh-cell size.
    hcs::SessionConfig config;
    config.dimension = options.small ? 6 : 10;
    hcs::Session session(config);
    const hcs::core::SimOutcome o = session.run("CLEAN-WITH-VISIBILITY");
    const Expectation e =
        expect_for("CLEAN-WITH-VISIBILITY", config.dimension, true, false);
    if (const int n = accepted_mutants(o, e); n != 0) {
      result.fail_check(std::to_string(n) + " mutants passed the oracle");
    }
  }
  const double setup_s = ms_since(kProcessStart) / 1000.0;
  if (options.setup_only) {
    result.add("setup_s", setup_s, "s");
    bench.server().stop();
    return result;
  }

  hcs::serve::Service& service = bench.server().service();
  const hcs::serve::ServiceStats before = service.stats();
  std::unique_ptr<SpanRecorder> rec;
  if (options.trace) rec = std::make_unique<SpanRecorder>(options.workload);

  // Traced runs split the window: untraced first, then with spans.
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const Clock::time_point start = Clock::now();
  std::vector<ClientLog> logs = bench.window(untraced_s, nullptr, options.trace);
  const double wall_s = ms_since(start) / 1000.0;
  const double peak_rss_mb = proc_status_mb("VmHWM");
  const Merged log = merge(std::move(logs), result);
  Merged traced;
  if (rec != nullptr) {
    traced = merge(bench.window(options.seconds - untraced_s, rec.get(), true),
                   result);
  }
  const hcs::serve::ServiceStats after = service.stats();

  // Sampled fresh replies against a direct Session::run (untimed).
  std::vector<double> exec_ms;
  for (const Merged* l : {&log, static_cast<const Merged*>(&traced)}) {
    for (const auto& [line, body] : l->samples) {
      ++result.attempted;
      double ms = 0.0;
      if (direct_body(line, &ms) != body) {
        result.fail_op("fresh reply differs from a direct Session::run: " +
                       line);
        continue;
      }
      exec_ms.push_back(ms);
    }
  }

  if (!options.trace) {
    add_end_to_end(result, log.all_ms, wall_s, setup_s, peak_rss_mb);
    bench.server().stop();
    return result;
  }

  // Per-layer probes on the hot lines: the parser alone, then the whole
  // in-process Service::handle on a hit (which must replay the same bytes).
  const std::vector<HotCell>& hot = bench.hot();
  hcs::serve::Request req;
  std::string error;
  const double parse_us = per_call_us(hot, [&](std::size_t i) {
    if (!hcs::serve::parse_request(hot[i].line, &req, &error)) {
      result.fail_check("parse_request rejected a hot line: " + error);
    }
  });
  const double hit_us = per_call_us(hot, [&](std::size_t i) {
    const hcs::serve::Service::Reply reply = service.handle(hot[i].line);
    if (reply_body(std::string_view(reply.line).substr(
            0, reply.line.size() - 1)) != hot[i].body) {
      result.fail_check("in-process hit replayed different bytes");
    }
  });
  bench.server().stop();

  const auto delta = [&](std::uint64_t hcs::serve::ServiceStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double requests = delta(&hcs::serve::ServiceStats::requests);
  const double miss_ms = median(log.fresh_ms);
  const double exec = median(exec_ms);
  result.add("serve.parse_us", parse_us, "us");
  result.add("serve.hit_us", hit_us, "us");
  result.add("serve.transport_us", median(log.hit_us) - hit_us, "us");
  result.add("serve.p99_ms", percentile(log.all_ms, 0.99), "ms");
  result.add("serve.miss_ms", miss_ms, "ms");
  result.add("serve.exec_ms", exec, "ms");
  result.add("serve.miss_overhead_ms", miss_ms - exec, "ms");
  result.add("serve.hit_rate",
             requests > 0 ? delta(&hcs::serve::ServiceStats::hits) / requests : 0,
             "ratio");
  result.add("serve.executions", delta(&hcs::serve::ServiceStats::executions),
             "count");
  result.add("serve.coalesced", delta(&hcs::serve::ServiceStats::coalesced),
             "count");
  result.add("serve.rejected", delta(&hcs::serve::ServiceStats::rejected),
             "count");
  result.add("serve.errors", delta(&hcs::serve::ServiceStats::errors), "count");
  const double p50 = median(log.all_ms);
  result.add("trace.overhead_pct",
             p50 > 0 ? 100.0 * (median(traced.all_ms) - p50) / p50 : 0, "%");
  if (!options.spans_out.empty() && !rec->write(options.spans_out)) {
    result.fail_check("cannot write spans to " + options.spans_out);
  }
  return result;
}

}  // namespace layerbench
