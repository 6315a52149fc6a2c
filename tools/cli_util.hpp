// Shared CLI plumbing for the rrf_* tools.
//
// Every tool that takes a policy name checks it with policy_or_exit(),
// reads every numeric flag value with parse_number() and opens every
// output file with open_output(), so bad input and an unwritable path
// both exit 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "alloc/policy.hpp"
#include "common/error.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

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

/// Opens `path` for writing; throws DomainError when it cannot.
inline std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw DomainError("cannot open " + path + " for writing");
  return out;
}

/// Opens `path`, lets `write` fill it and flushes it; throws DomainError
/// when the file cannot be opened or the disk refuses the write.
template <typename Write>
void write_output(const std::string& path, Write&& write) {
  std::ofstream out = open_output(path);
  write(out);
  if (!out.flush()) throw DomainError("write failed: " + path);
}

/// Writes the --trace, --profile and --metrics files a tool was asked for
/// (an empty path skips that output).  The extension picks the format:
/// a trace is Chrome JSON or, for .jsonl, JSONL; a profile is Chrome JSON
/// for .json, else collapsed stacks; metrics are JSON, or CSV / .prom.
inline void write_observability_outputs(const std::string& trace_path,
                                        const std::string& profile_path,
                                        const std::string& metrics_path) {
  if (!trace_path.empty()) {
    write_output(trace_path, [&](std::ostream& out) {
      if (trace_path.ends_with(".jsonl")) {
        obs::tracer().write_jsonl(out);
      } else {
        obs::tracer().write_chrome_trace(out);
      }
    });
    std::cout << "wrote " << trace_path << " ("
              << obs::tracer().events().size() << " events";
    if (obs::tracer().dropped() > 0) {
      std::cout << ", " << obs::tracer().dropped()
                << " dropped to ring wraparound";
    }
    std::cout << ")\n";
  }
  if (!profile_path.empty()) {
    const obs::ProfileSnapshot snapshot = obs::profile_snapshot();
    if (obs::metrics_enabled()) {
      // Land profile.* gauges in the same snapshot/exposition as the
      // tool's own counters.
      obs::publish_profile_metrics(obs::metrics(), snapshot);
    }
    write_output(profile_path, [&](std::ostream& out) {
      if (profile_path.ends_with(".json")) {
        obs::write_chrome_profile(out, snapshot);
      } else {
        obs::write_collapsed(out, snapshot);
      }
    });
    std::cout << "wrote " << profile_path << " (" << snapshot.merged.size()
              << " call-tree sites over " << snapshot.threads.size()
              << " thread(s))\n";
  }
  if (!metrics_path.empty()) {
    write_output(metrics_path, [&](std::ostream& out) {
      if (metrics_path.ends_with(".csv")) {
        obs::metrics().write_csv(out);
      } else if (metrics_path.ends_with(".prom")) {
        obs::write_prometheus(out, obs::metrics());
      } else {
        obs::metrics().write_json(out);
      }
    });
    std::cout << "wrote " << metrics_path << "\n";
  }
}

}  // namespace rrf::tools
