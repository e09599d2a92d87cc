// JSON round-trip for core::SimOutcome -- the unit of durable progress.
//
// Sweep checkpoints persist one serialized outcome per completed cell, and
// a resumed sweep must re-emit CSV/JSON byte-identical to an uninterrupted
// run, so the contract is exact: every field serializes (including the
// nested DegradationReport and the enum fields as their canonical
// to_string names), doubles render through util/json's %.17g canonical
// writer, and outcome == parse(outcome_json(outcome)) for every
// representable outcome. Enum names read back through sim::from_string,
// the inverse of each enum's one name table.

#pragma once

#include <string>

#include "core/strategy.hpp"
#include "sim/options.hpp"
#include "sim/types.hpp"
#include "util/json.hpp"

namespace hcs::ckpt {

[[nodiscard]] Json outcome_json(const core::SimOutcome& outcome);

/// False -- with a one-line message in `error` when non-null -- on any
/// structural mismatch; `out` is untouched on failure. Never aborts on
/// corrupt input.
[[nodiscard]] bool parse_outcome(const Json& json, core::SimOutcome* out,
                                 std::string* error = nullptr);

}  // namespace hcs::ckpt
