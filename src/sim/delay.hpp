// Delay models: how long an edge traversal (or a deliberate pause) takes.
//
// The paper's agents are asynchronous -- "every action takes a finite but
// otherwise unpredictable amount of time" -- while costs are measured in
// *ideal time* (unit traversals). The engine therefore samples traversal
// durations from a pluggable model:
//
//   unit()         every traversal takes exactly 1 (ideal-time measurement);
//   uniform(a, b)  i.i.d. uniform durations (generic asynchrony);
//   heavy_tailed() a spiky distribution (mostly fast hops with occasional
//                  order-of-magnitude stalls) that, combined with the
//                  engine's random wake policy, approximates an adversarial
//                  scheduler in the safety property tests.
//
// DelaySpec is the enumerable, printable description of those three
// models: the form sweeps, fuzz cells and hcsd requests carry, and the
// delay axis of hcs::CellKey (via label()).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "sim/types.hpp"
#include "util/assert.hpp"
#include "util/enum_names.hpp"
#include "util/rng.hpp"

namespace hcs::sim {

class DelayModel {
 public:
  using Sampler = std::function<SimTime(Rng&)>;

  /// Every action takes exactly 1 time unit.
  static DelayModel unit() {
    return DelayModel([](Rng&) { return SimTime{1}; }, /*is_unit=*/true);
  }

  /// Uniform in [lo, hi), lo > 0.
  static DelayModel uniform(SimTime lo, SimTime hi) {
    HCS_EXPECTS(lo > 0 && lo < hi);
    return DelayModel([lo, hi](Rng& rng) { return rng.uniform(lo, hi); });
  }

  /// 90% of traversals in [0.1, 1), 10% in [5, 50): occasional long stalls
  /// exercise arbitrarily skewed interleavings.
  static DelayModel heavy_tailed() {
    return DelayModel([](Rng& rng) {
      return rng.chance(0.9) ? rng.uniform(0.1, 1.0) : rng.uniform(5.0, 50.0);
    });
  }

  [[nodiscard]] SimTime sample(Rng& rng) const {
    const SimTime t = sampler_(rng);
    HCS_ENSURES(t > 0);
    return t;
  }

  /// True iff this is the unit model (every traversal takes exactly 1 and
  /// no randomness is consumed). The macro engine's eligibility check
  /// needs this introspection because samplers are otherwise opaque.
  [[nodiscard]] bool is_unit() const { return is_unit_; }

 private:
  explicit DelayModel(Sampler s, bool is_unit = false)
      : sampler_(std::move(s)), is_unit_(is_unit) {}
  Sampler sampler_;
  bool is_unit_ = false;
};

/// A serializable description of a DelayModel (DelayModel itself is an
/// opaque sampler; sweeps and cells need enumerable, printable
/// configurations).
struct DelaySpec {
  enum class Kind : std::uint8_t { kUnit, kUniform, kHeavyTailed };
  Kind kind = Kind::kUnit;
  double lo = 0.0;  ///< uniform bounds; unused otherwise
  double hi = 0.0;

  static DelaySpec unit() { return {}; }
  static DelaySpec uniform(double lo, double hi) {
    return {Kind::kUniform, lo, hi};
  }
  static DelaySpec heavy_tailed() { return {Kind::kHeavyTailed, 0.0, 0.0}; }

  [[nodiscard]] DelayModel make() const;
  /// "unit", "uniform(0.2,3)", "heavy-tailed".
  [[nodiscard]] std::string label() const;
};

inline constexpr NameTable<DelaySpec::Kind, 3> kDelayKindNames{{
    {DelaySpec::Kind::kUnit, "unit"},
    {DelaySpec::Kind::kUniform, "uniform"},
    {DelaySpec::Kind::kHeavyTailed, "heavy-tailed"},
}};
[[nodiscard]] constexpr const char* to_string(DelaySpec::Kind kind) {
  return enum_name(kDelayKindNames, kind);
}
[[nodiscard]] constexpr bool from_string(std::string_view name,
                                         DelaySpec::Kind* out) {
  return enum_from_name(kDelayKindNames, name, out);
}

}  // namespace hcs::sim
