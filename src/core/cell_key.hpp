// hcs::CellKey -- the canonical run identity, and the one cell codec.
//
// The paper's strategies are deterministic: a run's entire step sequence
// (and therefore its outcome, metrics and degradation report) is a pure
// function of (strategy, dimension, seed, delay shape, wake policy,
// visibility, move semantics, abort guards, fault workload, recovery
// policy, engine). CellKey names exactly that tuple, with a canonical
// byte-stable JSON encoding (hcs::Json's writer) and an FNV-1a content
// hash over it.
//
// Four subsystems route their identity through this one type:
//   * ckpt       -- Session's snapshot fingerprint (core/session.cpp)
//   * run/sweep  -- sweep resume fingerprints (run/sweep_ckpt.cpp), built
//                   from run::sweep_cell_key per grid point
//   * fuzz       -- artifact content hashes (fuzz/cell.cpp CellSpec::key)
//   * serve      -- hcsd's content-addressed result cache (src/serve)
//
// Every front door also goes through the one codec this header holds:
//   * the axis names come from sim's name tables (sim::to_string /
//     sim::from_string for wake policy, move semantics, engine kind and
//     delay kind), spelled nowhere else;
//   * parse_cell_field is the one strict parser for a cell's JSON fields,
//     shared by hcsd's request parser and the fuzz artifact reader;
//   * CellKey::run_options turns a key (plus its enumerable delay) into
//     the sim::RunOptions that hcsd, sweeps and both fuzz legs execute.
//
// The encoding is append-only and versioned by construction: every field
// serializes, in fixed declaration order, so equal keys render byte-equal
// and hash() is stable across processes and platforms. Pre-CellKey
// fingerprints differ byte-wise and are no longer read (DESIGN.md's
// deprecation policy).
//
// The delay axis is a *label*, not a sampler: DelayModel is opaque, so the
// key carries sim::DelaySpec::label() strings ("uniform(0.2,3)" and the
// kind names) -- or the "sampled" catch-all for custom models handed
// straight to Session, which callers swap at their own risk.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "sim/delay.hpp"
#include "sim/options.hpp"
#include "util/json.hpp"

namespace hcs {

struct CellKey {
  std::string strategy;  ///< registry name, canonical casing
  unsigned dimension = 4;
  std::uint64_t seed = 1;
  /// Delay-model label (sim::DelaySpec::label()), or "sampled" for an
  /// opaque custom DelayModel.
  std::string delay = sim::to_string(sim::DelaySpec::Kind::kUnit);
  sim::WakePolicy policy = sim::WakePolicy::kFifo;
  bool visibility = false;
  sim::MoveSemantics semantics = sim::MoveSemantics::kAtomicArrival;
  std::uint64_t max_agent_steps = 200'000'000;
  std::uint64_t livelock_window = 1'000'000;
  fault::FaultSpec faults;
  fault::RecoveryConfig recovery;
  /// Requested executor (may be kAuto; consumers that need the *resolved*
  /// engine -- e.g. the ckpt fingerprint -- set kEvent/kMacro explicitly).
  sim::EngineKind engine = sim::EngineKind::kEvent;

  /// The identity tuple of a (strategy, dimension, options) run as Session
  /// would execute it. Copies every identity-relevant RunOptions field;
  /// non-identity fields (trace, obs, checkpoint_*) are ignored. The delay
  /// label degrades to "unit"/"sampled" because DelayModel is opaque.
  [[nodiscard]] static CellKey from_options(std::string_view strategy,
                                            unsigned dimension,
                                            const sim::RunOptions& options);

  /// The inverse of from_options: the RunOptions a run of this cell
  /// executes with. Every identity field is copied and the sampler is
  /// rebuilt from `delay`, which must be the spec this key's label came
  /// from. Execution details (trace, obs, shards, checkpoint_*) keep
  /// their defaults for the caller to set; Session still ORs in the
  /// strategy's own visibility need.
  [[nodiscard]] sim::RunOptions run_options(const sim::DelaySpec& delay) const;

  /// Canonical JSON object: every field, declaration order, stable axis
  /// names. Equal keys render byte-equal under Json's writer.
  [[nodiscard]] Json to_json() const;
  /// to_json().dump() -- the canonical byte encoding.
  [[nodiscard]] std::string canonical() const;
  /// fnv1a64_hex(canonical()): the 16-hex-digit content hash that ckpt
  /// fingerprints, fuzz artifact names and the serve cache key all use.
  [[nodiscard]] std::string hash() const;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

/// What parse_cell_field made of one member.
enum class CellField : std::uint8_t { kParsed, kUnknown, kInvalid };

/// The one strict, total parser for a cell's JSON fields (the CellKey
/// schema, docs/SERVING.md "Cell schema"): hcsd requests and fuzz
/// artifacts both feed it every member of their cell object. It parses
/// `value` into `*key` (and the delay into `*delay`, with key->delay set
/// to its label) when `name` is a CellKey field, and returns kUnknown
/// without touching anything otherwise, so each caller decides what its
/// own extra fields mean. kInvalid comes with a one-line diagnostic in
/// `*error`. It never aborts: counts must be JSON unsigned integers,
/// dimension lies in [1, 30], abort guards are > 0, and a uniform delay
/// needs finite bounds with 0 < lo < hi -- DelayModel::uniform's
/// precondition, rejected here as input instead.
[[nodiscard]] CellField parse_cell_field(std::string_view name,
                                         const Json& value, CellKey* key,
                                         sim::DelaySpec* delay,
                                         std::string* error);

}  // namespace hcs
