// Engine::checkpoint_state() -- the full observable simulation state as
// one canonical Json document (see docs/CHECKPOINT.md for the format).
//
// The document is an *integrity contract*, not a resumable image: agent
// logic objects are arbitrary state machines behind unique_ptr, so restore
// re-executes the run deterministically to the recorded step frontier and
// byte-compares the reconstructed document against the snapshot. For that
// comparison to be meaningful the rendering must be independent of
// process-local accidents: whiteboard and journal entries are keyed by
// their interned *name* and sorted by it (intern ids depend on what else
// ran in the process), the event heap is serialized in (time, seq) order
// rather than heap-vector layout, and container entries that are zero/
// empty are omitted so reserve() policies cannot leak in. Everything else
// -- logical counters, RNG stream words, statuses, metrics -- is exact.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/json.hpp"

namespace hcs::sim {

namespace {

const char* agent_state_name(std::uint8_t state) {
  switch (state) {
    case 0: return "runnable";
    case 1: return "waiting";
    case 2: return "waiting-global";
    case 3: return "in-transit";
    case 4: return "sleeping";
    case 5: return "crashed";
    case 6: return "done";
  }
  return "?";
}

char status_char(NodeStatus s) {
  switch (s) {
    case NodeStatus::kContaminated: return 'c';
    case NodeStatus::kClean: return '-';
    case NodeStatus::kGuarded: return 'g';
  }
  return '?';
}

/// Non-default degradation fields only appear in faulty runs; serialize
/// the full report (it is part of the observable outcome).
Json degradation_json_inline(const fault::DegradationReport& d) {
  Json j = Json::object();
  j.set("crashes", d.crashes);
  j.set("crashes_in_transit", d.crashes_in_transit);
  j.set("wb_entries_lost", d.wb_entries_lost);
  j.set("wb_entries_corrupted", d.wb_entries_corrupted);
  j.set("wakes_dropped", d.wakes_dropped);
  j.set("links_stalled", d.links_stalled);
  j.set("crashes_detected", d.crashes_detected);
  j.set("wb_faults_detected", d.wb_faults_detected);
  j.set("faults_recovered", d.faults_recovered);
  j.set("recovery_rounds", d.recovery_rounds);
  j.set("repair_agents", d.repair_agents);
  j.set("recovery_moves", d.recovery_moves);
  j.set("recovery_time", d.recovery_time);
  j.set("recontaminations_attributed", d.recontaminations_attributed);
  j.set("agents_stranded", d.agents_stranded);
  return j;
}

Json sparse_counts(const std::vector<std::uint64_t>& counts) {
  Json out = Json::array();
  for (std::size_t v = 0; v < counts.size(); ++v) {
    if (counts[v] == 0) continue;
    Json pair = Json::array();
    pair.push_back(static_cast<std::uint64_t>(v));
    pair.push_back(counts[v]);
    out.push_back(std::move(pair));
  }
  return out;
}

Json metrics_json(const Metrics& m) {
  Json j = Json::object();
  j.set("agents_spawned", m.agents_spawned);
  j.set("total_moves", m.total_moves);
  Json by_role = Json::object();
  for (const auto& [role, moves] : m.moves_by_role) {
    by_role.set(role, moves);
  }
  j.set("moves_by_role", std::move(by_role));
  j.set("makespan", m.makespan);
  j.set("peak_whiteboard_bits", m.peak_whiteboard_bits);
  j.set("nodes_visited", m.nodes_visited);
  j.set("recontamination_events", m.recontamination_events);
  j.set("agents_crashed", m.agents_crashed);
  j.set("events_processed", m.events_processed);
  j.set("agent_steps", m.agent_steps);
  return j;
}

Json network_json(const Network& net) {
  Json j = Json::object();
  j.set("homebase", static_cast<std::uint64_t>(net.homebase()));
  j.set("semantics", to_string(net.move_semantics()));
  std::string status;
  std::string visited;
  status.reserve(net.num_nodes());
  visited.reserve(net.num_nodes());
  Json agent_counts = Json::array();
  Json whiteboards = Json::array();
  for (graph::Vertex v = 0; v < net.num_nodes(); ++v) {
    status.push_back(status_char(net.status(v)));
    visited.push_back(net.visited(v) ? '1' : '0');
    if (net.agents_at(v) != 0) {
      Json pair = Json::array();
      pair.push_back(static_cast<std::uint64_t>(v));
      pair.push_back(static_cast<std::uint64_t>(net.agents_at(v)));
      agent_counts.push_back(std::move(pair));
    }
    const Whiteboard& wb = net.whiteboard(v);
    if (wb.live_registers() != 0) {
      std::vector<std::pair<std::string, std::int64_t>> entries;
      entries.reserve(wb.live_registers());
      wb.for_each_entry([&](WbKey key, std::int64_t value) {
        entries.emplace_back(wb_key_name(key), value);
      });
      std::sort(entries.begin(), entries.end());
      Json node_wb = Json::array();
      node_wb.push_back(static_cast<std::uint64_t>(v));
      Json kvs = Json::array();
      for (const auto& [name, value] : entries) {
        Json kv = Json::array();
        kv.push_back(name);
        kv.push_back(value);
        kvs.push_back(std::move(kv));
      }
      node_wb.push_back(std::move(kvs));
      whiteboards.push_back(std::move(node_wb));
    }
  }
  j.set("status", std::move(status));
  j.set("visited", std::move(visited));
  j.set("agent_counts", std::move(agent_counts));
  j.set("whiteboards", std::move(whiteboards));
  j.set("contaminated_count", net.contaminated_count());
  j.set("metrics", metrics_json(net.metrics()));
  return j;
}

}  // namespace

Json Engine::checkpoint_state() const {
  Json j = Json::object();
  j.set("version", std::uint64_t{1});
  j.set("now", now_);
  j.set("next_seq", next_seq_);
  j.set("steps_taken", steps_taken_);
  j.set("last_progress_step", last_progress_step_);
  j.set("abort_reason", to_string(abort_reason_));
  j.set("captured", captured_);
  j.set("capture_time", capture_time_);

  Json rng = Json::array();
  for (const std::uint64_t word : rng_.state()) rng.push_back(word);
  j.set("rng", std::move(rng));

  Json agents = Json::array();
  for (std::size_t a = 0; a < agents_.size(); ++a) {
    const AgentRecord& rec = agents_[a];
    Json agent = Json::object();
    agent.set("at", static_cast<std::uint64_t>(rec.at));
    agent.set("moving_to", static_cast<std::uint64_t>(rec.moving_to));
    agent.set("role", rec.role);
    agent.set("moves", rec.moves);
    agent.set("crash_on_arrival", rec.crash_on_arrival);
    agent.set("state",
              agent_state_name(static_cast<std::uint8_t>(agent_state_[a])));
    agents.push_back(std::move(agent));
  }
  j.set("agents", std::move(agents));

  // Scheduling queues in *logical* order: the runnable FIFO from its head
  // index, waiter lists per node (non-empty only), the event heap sorted
  // by its own (time, seq) ordering.
  Json runnable = Json::array();
  for (std::size_t i = runnable_head_; i < runnable_.size(); ++i) {
    runnable.push_back(static_cast<std::uint64_t>(runnable_[i]));
  }
  j.set("runnable", std::move(runnable));

  Json waiting = Json::array();
  for (graph::Vertex v = 0; v < waiting_at_.size(); ++v) {
    if (waiting_at_[v].empty()) continue;
    Json node = Json::array();
    node.push_back(static_cast<std::uint64_t>(v));
    Json ids = Json::array();
    for (const AgentId a : waiting_at_[v]) {
      ids.push_back(static_cast<std::uint64_t>(a));
    }
    node.push_back(std::move(ids));
    waiting.push_back(std::move(node));
  }
  j.set("waiting_at", std::move(waiting));

  Json waiting_global = Json::array();
  for (const AgentId a : waiting_global_) {
    waiting_global.push_back(static_cast<std::uint64_t>(a));
  }
  j.set("waiting_global", std::move(waiting_global));

  std::vector<Event> events = events_;
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return b > a; });
  Json heap = Json::array();
  for (const Event& e : events) {
    Json event = Json::array();
    event.push_back(e.time);
    event.push_back(e.seq);
    event.push_back(static_cast<std::uint64_t>(e.agent));
    heap.push_back(std::move(event));
  }
  j.set("events", std::move(heap));

  // Fault machinery: logical counters (the "fault-schedule cursor" -- the
  // schedule itself is stateless), pending wake re-deliveries, and the
  // repair journal in its deterministic name-keyed order.
  j.set("wake_counts", sparse_counts(wake_count_));
  j.set("wb_write_counts", sparse_counts(wb_write_count_));
  Json dropped = Json::array();
  for (const graph::Vertex v : dropped_wake_nodes_) {
    dropped.push_back(static_cast<std::uint64_t>(v));
  }
  j.set("dropped_wake_nodes", std::move(dropped));
  Json journal = Json::array();
  for (const WbJournal::Entry& entry : wb_journal_.entries()) {
    Json item = Json::array();
    item.push_back(static_cast<std::uint64_t>(entry.node));
    item.push_back(wb_key_name(entry.key));
    item.push_back(entry.value);
    journal.push_back(std::move(item));
  }
  j.set("wb_journal", std::move(journal));
  j.set("degradation", degradation_json_inline(degradation_));

  Json obs = Json::object();
  obs.set("spawns", obs_tallies_.spawns);
  obs.set("move_starts", obs_tallies_.move_starts);
  obs.set("move_ends", obs_tallies_.move_ends);
  obs.set("status_changes", obs_tallies_.status_changes);
  obs.set("wb_writes", obs_tallies_.wb_writes);
  obs.set("terminations", obs_tallies_.terminations);
  obs.set("customs", obs_tallies_.customs);
  obs.set("node_wakes", obs_tallies_.node_wakes);
  obs.set("global_wakes", obs_tallies_.global_wakes);
  obs.set("events", obs_tallies_.events);
  obs.set("peak_queue", static_cast<std::uint64_t>(obs_tallies_.peak_queue));
  j.set("obs", std::move(obs));

  j.set("network", network_json(*net_));
  return j;
}

}  // namespace hcs::sim
