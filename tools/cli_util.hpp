// Shared CLI plumbing for the rrf_* tools.
//
// Every tool that takes a policy name checks it with policy_or_exit(),
// reads every numeric flag value with parse_number() and opens every
// output file with open_output(), so bad input and an unwritable path
// both exit 2; files written after the run (PendingOutput,
// ObservabilityOutputs) are opened before it, so that exit comes first.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

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

/// An output file that is opened before the run and written after it, so
/// an unwritable path exits 2 before any window runs.  An empty path asks
/// for no output.
class PendingOutput {
 public:
  explicit PendingOutput(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) out_ = open_output(path_);
  }

  explicit operator bool() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Lets `fill` write the file and flushes it; throws DomainError when
  /// the disk refuses the write.
  template <typename Fill>
  void write(Fill&& fill) {
    fill(out_);
    if (!out_.flush()) throw DomainError("write failed: " + path_);
  }

 private:
  std::string path_;
  std::ofstream out_;
};

/// The --trace, --profile and --metrics files a tool was asked for (an
/// empty path skips that output), opened when constructed; write() fills
/// them after the run.  The extension picks the format: a trace is Chrome
/// JSON or, for .jsonl, JSONL; a profile is Chrome JSON for .json, else
/// collapsed stacks; metrics are JSON, or CSV / .prom.
class ObservabilityOutputs {
 public:
  ObservabilityOutputs(std::string trace_path, std::string profile_path,
                       std::string metrics_path)
      : trace_(std::move(trace_path)),
        profile_(std::move(profile_path)),
        metrics_(std::move(metrics_path)) {}

  void write() {
    if (trace_) {
      trace_.write([&](std::ostream& out) {
        if (trace_.path().ends_with(".jsonl")) {
          obs::tracer().write_jsonl(out);
        } else {
          obs::tracer().write_chrome_trace(out);
        }
      });
      std::cout << "wrote " << trace_.path() << " ("
                << obs::tracer().events().size() << " events";
      if (obs::tracer().dropped() > 0) {
        std::cout << ", " << obs::tracer().dropped()
                  << " dropped to ring wraparound";
      }
      std::cout << ")\n";
    }
    if (profile_) {
      const obs::ProfileSnapshot snapshot = obs::profile_snapshot();
      if (obs::metrics_enabled()) {
        // Land profile.* gauges in the same snapshot/exposition as the
        // tool's own counters.
        obs::publish_profile_metrics(obs::metrics(), snapshot);
      }
      profile_.write([&](std::ostream& out) {
        if (profile_.path().ends_with(".json")) {
          obs::write_chrome_profile(out, snapshot);
        } else {
          obs::write_collapsed(out, snapshot);
        }
      });
      std::cout << "wrote " << profile_.path() << " ("
                << snapshot.merged.size() << " call-tree sites over "
                << snapshot.threads.size() << " thread(s))\n";
    }
    if (metrics_) {
      metrics_.write([&](std::ostream& out) {
        if (metrics_.path().ends_with(".csv")) {
          obs::metrics().write_csv(out);
        } else if (metrics_.path().ends_with(".prom")) {
          obs::write_prometheus(out, obs::metrics());
        } else {
          obs::metrics().write_json(out);
        }
      });
      std::cout << "wrote " << metrics_.path() << "\n";
    }
  }

 private:
  PendingOutput trace_;
  PendingOutput profile_;
  PendingOutput metrics_;
};

/// Switches on the sinks whose outputs a tool was asked for, and names
/// the calling thread "main" for the trace's and the profile's tracks.
inline void enable_observability(bool trace, bool metrics, bool profile) {
  obs::set_tracing_enabled(trace);
  obs::set_metrics_enabled(metrics);
  obs::set_profiling_enabled(profile);
  if (trace || profile) obs::set_thread_name("main");
}

}  // namespace rrf::tools
