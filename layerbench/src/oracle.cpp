#include "oracle.hpp"

#include <functional>
#include <vector>

#include "core/clean_sync.hpp"
#include "core/formulas.hpp"

namespace layerbench {

using hcs::core::SimOutcome;

Expectation expect_for(const std::string& strategy, unsigned d,
                       bool unit_delay, bool macro_schedule) {
  namespace f = hcs::core;
  Expectation e;
  e.strategy = strategy;
  e.dimension = d;
  if (strategy == "CLEAN") {
    e.team_size = f::clean_team_size(d);
    e.agent_moves = f::clean_agent_moves(d);
    const f::CleanSyncStats stats = f::measure_clean_sync(d);
    e.synchronizer_moves = stats.sync_moves_total;
    e.total_moves = stats.agent_moves + stats.sync_moves_total;
    if (unit_delay && macro_schedule) {
      e.makespan = static_cast<double>(*e.total_moves);
    }
  } else if (strategy == "CLEAN-WITH-VISIBILITY" || strategy == "SYNCHRONOUS") {
    e.team_size = f::visibility_team_size(d);
    e.agent_moves = f::visibility_moves(d);
    e.total_moves = f::visibility_moves(d);
    if (unit_delay) e.makespan = static_cast<double>(f::visibility_time(d));
  } else if (strategy == "CLONING") {
    e.team_size = f::cloning_agents(d);
    e.total_moves = f::cloning_moves(d);
    if (unit_delay) e.makespan = static_cast<double>(f::visibility_time(d));
  }
  return e;
}

std::string check(const SimOutcome& o, const Expectation& e) {
  const std::string cell =
      e.strategy + " H_" + std::to_string(e.dimension) + ": ";
  if (o.strategy != e.strategy || o.dimension != e.dimension) {
    return cell + "outcome is for " + o.strategy + " H_" +
           std::to_string(o.dimension);
  }
  if (!o.correct()) return cell + "verdict " + o.verdict();
  const auto differs = [](const char* what, std::uint64_t got,
                          std::uint64_t want) {
    return std::string(what) + " " + std::to_string(got) + " != " +
           std::to_string(want);
  };
  if (e.team_size && o.team_size != *e.team_size) {
    return cell + differs("team_size", o.team_size, *e.team_size);
  }
  if (e.agent_moves && o.agent_moves != *e.agent_moves) {
    return cell + differs("agent_moves", o.agent_moves, *e.agent_moves);
  }
  if (e.total_moves && o.total_moves != *e.total_moves) {
    return cell + differs("total_moves", o.total_moves, *e.total_moves);
  }
  if (e.synchronizer_moves && o.synchronizer_moves != *e.synchronizer_moves) {
    return cell + differs("synchronizer_moves", o.synchronizer_moves,
                          *e.synchronizer_moves);
  }
  if (e.makespan && o.makespan != *e.makespan) {
    return cell + "makespan " + std::to_string(o.makespan) +
           " != " + std::to_string(*e.makespan);
  }
  return {};
}

int accepted_mutants(const SimOutcome& good, const Expectation& e) {
  int accepted = check(good, e).empty() ? 0 : 1;
  std::vector<std::function<void(SimOutcome&)>> mutants = {
      [](SimOutcome& o) { ++o.team_size; },
      [](SimOutcome& o) { --o.team_size; },
      [](SimOutcome& o) { ++o.total_moves; },
      [](SimOutcome& o) { --o.total_moves; },
      [](SimOutcome& o) { ++o.recontaminations; },
  };
  if (e.agent_moves) {
    mutants.push_back([](SimOutcome& o) { ++o.agent_moves; });
    mutants.push_back([](SimOutcome& o) { --o.agent_moves; });
  }
  if (e.makespan) {
    mutants.push_back([](SimOutcome& o) { o.makespan += 1.0; });
  }
  for (const auto& mutate : mutants) {
    SimOutcome m = good;
    mutate(m);
    if (check(m, e).empty()) ++accepted;
  }
  return accepted;
}

}  // namespace layerbench
