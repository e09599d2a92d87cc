#include "sim/delay.hpp"

#include <cstdio>

namespace hcs::sim {

namespace {

/// Shortest exact-ish rendering for delay-bound labels: 3 -> "3",
/// 0.2 -> "0.2".
std::string compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

DelayModel DelaySpec::make() const {
  switch (kind) {
    case Kind::kUnit: return DelayModel::unit();
    case Kind::kUniform: return DelayModel::uniform(lo, hi);
    case Kind::kHeavyTailed: return DelayModel::heavy_tailed();
  }
  return DelayModel::unit();
}

std::string DelaySpec::label() const {
  if (kind != Kind::kUniform) return to_string(kind);
  return std::string(to_string(kind)) + "(" + compact(lo) + "," +
         compact(hi) + ")";
}

}  // namespace hcs::sim
