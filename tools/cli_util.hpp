// Shared CLI plumbing for the rrf_* tools.
//
// Every tool that takes a policy name checks it with policy_or_exit(),
// and reads every numeric flag value with parse_number().
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "alloc/policy.hpp"
#include "common/error.hpp"

namespace rrf::tools {

/// Looks `name` up in the policy table.  An unknown name prints the
/// valid names and exits 2, so a typo fails loudly instead of running,
/// or verifying, nothing.
inline const alloc::Policy& policy_or_exit(const char* tool,
                                           const std::string& name) {
  try {
    return alloc::policy(name);
  } catch (const DomainError& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    std::exit(2);
  }
}

/// Reads the value of a numeric flag.  The whole token must be a number
/// of type T, finite and in range for T: "x", "1.5x", "nan", "1e999" and
/// "-3" for an unsigned T all throw DomainError naming the flag, so a
/// typo never aborts the tool or wraps around to a huge count.
template <typename T>
T parse_number(std::string_view flag, const std::string& text) {
  static_assert(std::is_arithmetic_v<T>);
  const auto fail = [&](const char* what) {
    throw DomainError(std::string(flag) + ": " + what + ": '" + text + "'");
  };
  if (std::is_unsigned_v<T> && !text.empty() && text[0] == '-') {
    fail("out of range");
  }
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) fail("out of range");
  if (ec != std::errc() || ptr != end) fail("not a number");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) fail("not a finite number");
  }
  return value;
}

}  // namespace rrf::tools
