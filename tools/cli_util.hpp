// Shared CLI plumbing for the rrf_* tools.
//
// rrf_sim_cli and rrf_alloc_cli expose the same telemetry-journal flags;
// this header keeps their spelling, parsing and defaults in one place so
// the two tools can never drift apart (`--journal` meaning bytes in one
// and a path in the other).  Both tools already use a `next()` closure to
// consume flag values, so parse_flag() takes any nullary callable.  Every
// tool that takes a policy name checks it with policy_or_exit(), and
// reads every numeric flag value with parse_number().
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "alloc/policy.hpp"
#include "common/error.hpp"
#include "obs/journal.hpp"

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

/// Help text for the shared journal flags (same indentation as the rest
/// of each tool's usage block).
inline constexpr const char* kJournalFlagsHelp =
    "  --journal <path>    append a schema-v1 telemetry journal (JSONL);\n"
    "                      inspect with rrf_inspect journal\n"
    "  --journal-retention <bytes>  bound journal disk use via two-segment\n"
    "                      rotation (default 0 = unbounded)\n";

/// The journal flags shared by rrf_sim_cli and rrf_alloc_cli.
struct JournalCliOptions {
  std::string path;           ///< --journal (empty = journaling off)
  std::size_t retention = 0;  ///< --journal-retention bytes (0 = unbounded)

  bool enabled() const { return !path.empty(); }

  /// Consumes `arg` when it is one of the journal flags, pulling its
  /// value from `next` (a nullary callable yielding the following argv
  /// token).  Returns false — nothing consumed — for any other flag.
  template <typename Next>
  bool parse_flag(const std::string& arg, Next&& next) {
    if (arg == "--journal") {
      path = next();
      return true;
    }
    if (arg == "--journal-retention") {
      retention = parse_number<std::size_t>("--journal-retention", next());
      return true;
    }
    return false;
  }

  /// Writer options with the shared fields filled in; the caller sets
  /// kind, policy and the tenant list.
  obs::TelemetryJournal::Options writer_options() const {
    obs::TelemetryJournal::Options options;
    options.path = path;
    options.max_bytes = retention;
    return options;
  }
};

}  // namespace rrf::tools
