// One (enumerator, name) table per enum: the single place an axis's wire
// names are spelled. enum_name / enum_from_name read the table both ways,
// so a name and its inverse can never drift apart.

#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <utility>

namespace hcs {

template <typename Enum, std::size_t N>
using NameTable = std::array<std::pair<Enum, const char*>, N>;

/// The table's name for `value`; "?" for a value the table lacks.
template <typename Enum, std::size_t N>
[[nodiscard]] constexpr const char* enum_name(const NameTable<Enum, N>& table,
                                              Enum value) {
  for (const auto& [e, name] : table) {
    if (e == value) return name;
  }
  return "?";
}

/// False (out untouched) when `name` is not in the table.
template <typename Enum, std::size_t N>
[[nodiscard]] constexpr bool enum_from_name(const NameTable<Enum, N>& table,
                                            std::string_view name, Enum* out) {
  for (const auto& [e, spelled] : table) {
    if (name == spelled) {
      *out = e;
      return true;
    }
  }
  return false;
}

}  // namespace hcs
