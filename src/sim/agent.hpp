// The agent programming model.
//
// An Agent is a reactive state machine. Whenever it is runnable the engine
// calls step(ctx); the agent inspects its surroundings through the context
// (current node, local whiteboard, neighbour status when the visibility
// model is enabled) and returns one Action:
//
//   move(j)       traverse the edge with port label j (takes sampled time);
//   move_to(v)    traverse the edge to neighbour v;
//   wait()        sleep until something observable changes at the current
//                 node (whiteboard write, agent arrival/departure) or -- in
//                 the visibility model -- a neighbour's status changes;
//   idle(dt)      local computation taking dt time units;
//   finished()    terminate (the agent stays put and keeps guarding).
//
// Each step() invocation is atomic: whiteboard reads and writes performed
// inside it happen in mutual exclusion, which is exactly the paper's
// "access to a whiteboard is gained fairly in mutual exclusion".

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph.hpp"
#include "sim/types.hpp"
#include "sim/wb_key.hpp"

namespace hcs::sim {

class Engine;
class Agent;

struct Action {
  enum class Kind : std::uint8_t {
    kMove,
    kWait,        ///< until something changes at the current node
    kWaitGlobal,  ///< until any agent calls broadcast_signal()
    kIdle,
    kTerminate,
  };

  Kind kind = Kind::kWait;
  graph::PortLabel port = 0;          // for kMove via port
  std::optional<graph::Vertex> dest;  // for kMove via explicit neighbour
  SimTime duration = 0;               // for kIdle

  static Action move(graph::PortLabel port) {
    Action a;
    a.kind = Kind::kMove;
    a.port = port;
    return a;
  }
  static Action move_to(graph::Vertex v) {
    Action a;
    a.kind = Kind::kMove;
    a.dest = v;
    return a;
  }
  static Action wait() { return {}; }
  static Action wait_global() {
    Action a;
    a.kind = Kind::kWaitGlobal;
    return a;
  }
  static Action idle(SimTime dt) {
    Action a;
    a.kind = Kind::kIdle;
    a.duration = dt;
    return a;
  }
  static Action finished() {
    Action a;
    a.kind = Kind::kTerminate;
    return a;
  }
};

/// Everything an agent may observe and do during one atomic step. Created
/// by the engine; accessors enforce the model's visibility rules.
class AgentContext {
 public:
  AgentContext(Engine& engine, AgentId self, graph::Vertex here);

  [[nodiscard]] AgentId self() const { return self_; }
  [[nodiscard]] graph::Vertex here() const { return here_; }
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] const graph::Graph& graph() const;

  /// Agents (including terminated ones) currently on this node.
  [[nodiscard]] std::size_t agents_here() const;

  /// Status of a node: the agent's own node is always observable; other
  /// nodes require the visibility model and adjacency.
  [[nodiscard]] NodeStatus status(graph::Vertex v) const;

  /// True iff the engine runs the visibility model (Section 4).
  [[nodiscard]] bool visibility() const;

  // Local whiteboard (always permitted). The WbKey overloads are the hot
  // path: protocols intern their keys once (file-scope wb_key(...) call)
  // and pay no hashing or string compare per access. The std::string
  // overloads intern on every call and forward; fine for tests and
  // occasional writes.
  [[nodiscard]] std::int64_t wb_get(WbKey key, std::int64_t fallback = 0) const;
  void wb_set(WbKey key, std::int64_t value);
  std::int64_t wb_add(WbKey key, std::int64_t delta);
  void wb_erase(WbKey key);
  [[nodiscard]] std::int64_t wb_get(const std::string& key,
                                    std::int64_t fallback = 0) const;
  void wb_set(const std::string& key, std::int64_t value);
  std::int64_t wb_add(const std::string& key, std::int64_t delta);
  void wb_erase(const std::string& key);

  /// Free-form annotation into the trace.
  void note(const std::string& detail);

  /// Creates a copy of an agent at the current node (the Section 5 cloning
  /// capability). The clone starts runnable. Cloning is a local computation
  /// and takes no time.
  AgentId clone(std::unique_ptr<Agent> copy);

  /// Wakes every agent blocked in Action::wait_global(). A harness-level
  /// primitive (used by the plan replayer's round barriers), not part of
  /// the paper's whiteboard model.
  void broadcast_signal();

  // Observability (RunOptions::obs). All no-ops when no registry is
  // attached; obs_enabled() lets protocols skip the work of computing a
  // metric at all.
  [[nodiscard]] bool obs_enabled() const;
  void obs_count(std::string_view name, std::uint64_t delta = 1);
  /// Marks a strategy phase transition on a logical sim-time track (the
  /// previous phase on that track closes at now()).
  void obs_phase(const std::string& track, const std::string& name);

 private:
  Engine& engine_;
  AgentId self_;
  graph::Vertex here_;
};

class Agent {
 public:
  virtual ~Agent() = default;

  /// One atomic reaction. Must not retain the context.
  virtual Action step(AgentContext& ctx) = 0;

  /// Role label used for per-role move accounting ("agent", "synchronizer",
  /// ...).
  [[nodiscard]] virtual std::string role() const { return "agent"; }
};

}  // namespace hcs::sim
