// Live telemetry exposition: the ops-plane HTTP server (observability
// subsystem, see docs/OBSERVABILITY.md "Live ops plane").
//
// Two pieces:
//  * write_prometheus() — renders a MetricsRegistry in the Prometheus text
//    exposition format (version 0.0.4).  Registry names are mangled into
//    valid Prometheus identifiers ("phase.allocate.seconds" →
//    "rrf_phase_allocate_seconds"); a registry name may carry labels in a
//    trailing `{key=value,...}` suffix, which the exporter re-emits as
//    proper quoted Prometheus labels.  Label values round-trip through the
//    registry key with structural characters backslash-escaped (see
//    labeled()), and the text output escapes backslash/quote/newline per
//    the exposition-format spec.  Histograms are exported with cumulative
//    `_bucket{le=...}` series plus `_sum`/`_count`.
//  * ExpositionServer — a small embedded HTTP/1.1 server (POSIX sockets)
//    dispatching a fixed route table:
//      GET /metrics       Prometheus text format
//      GET /metrics.json  the registry's JSON document
//      GET /healthz       liveness — "ok" plus the build-info line
//                         (common/build_info.hpp) while the server runs
//      GET /readyz        readiness — 503 once the stall watchdog trips
//                         (no allocation round within stall_deadline_seconds;
//                         requires an attached OpsHub, else mirrors /healthz)
//      GET /alerts        the DetectorBank's alert book as JSON: active and
//                         resolved alerts, raises per kind and in total
//      GET /rounds        per-round summaries as newline-delimited JSON over
//                         chunked transfer; follows the run live
//                         (`?n=K` caps the line count, `?follow=0` sends the
//                         buffered backlog and ends — for curl/CI)
//      GET /profile       collapsed-flamegraph snapshot (503 while the
//                         profiler is disabled)
//      GET /incidents     the IncidentManager's incident list as JSON
//                         (the empty document without a manager)
//      GET /incidents/<id>  one incident's full manifest (404 unknown id)
//    Binding port 0 picks an ephemeral port (port() reports the real one).
//    The accept loop hands each connection to a short-lived handler thread
//    so a slow scrape or a following /rounds subscriber never blocks other
//    clients; stop() shuts the listener down, wakes every handler and joins
//    them all (the destructor does the same).  Requests that fail to arrive
//    within read_timeout_ms get 408, malformed request lines get 400.
//    Scrapes are safe while a simulation is mutating instruments
//    concurrently: the server reads through the registry's shared-lock
//    snapshot path and the OpsHub's mutex only.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/instrumented_mutex.hpp"
#include "obs/metrics.hpp"

namespace rrf::obs {

class OpsHub;
class IncidentManager;

/// Builds a registry key carrying exposition labels, e.g.
/// labeled("fairness.tenant_beta", {{"tenant", "tpcc-1"}})
///   == "fairness.tenant_beta{tenant=tpcc-1}".
/// Keys built this way sort next to their unlabeled siblings, so one
/// metric family stays contiguous in the registry's ordered map.
/// Structural characters in label values (backslash, comma, equals,
/// braces) are backslash-escaped so any tenant name round-trips;
/// prometheus_name() undoes the escaping.
std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// A registry name split into its Prometheus form: mangled base name
/// (prefixed "rrf_", dots → underscores) plus parsed labels (values
/// unescaped back to their raw form).
struct PrometheusName {
  std::string base;
  std::vector<std::pair<std::string, std::string>> labels;
};
PrometheusName prometheus_name(const std::string& registry_name);

/// Renders `snapshot` / `registry` in Prometheus text format; every
/// sample value prints through format_sample (obs/metrics.hpp).
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);
void write_prometheus(std::ostream& os, const MetricsRegistry& registry);

class ExpositionServer {
 public:
  struct Config {
    /// TCP port to listen on; 0 picks an ephemeral port.
    std::uint16_t port = 0;
    /// Loopback by default: exposition is an operator endpoint, not a
    /// public one.
    std::string bind_address = "127.0.0.1";
    /// Milliseconds a connection may take to deliver its request before
    /// the handler answers 408 (slow clients must not pin handlers).
    int read_timeout_ms = 5000;
    /// /readyz trips (503) when no allocation round completed within
    /// this many seconds.  0 disables the watchdog.  Needs `ops`; the
    /// deadline also grants a startup grace period of its own length.
    double stall_deadline_seconds = 0.0;
    /// The hub behind /rounds, /alerts and the /readyz watchdog.  Null
    /// keeps those endpoints in degraded mode (/rounds answers 503,
    /// /alerts serves the empty document, /readyz mirrors /healthz).
    OpsHub* ops = nullptr;
    /// The incident engine behind /incidents.  Null keeps the routes in
    /// degraded mode (/incidents serves the empty document, ids 404).
    IncidentManager* incidents = nullptr;
  };

  /// `registry` defaults to the process-global metrics() registry.
  explicit ExpositionServer(Config config,
                            const MetricsRegistry* registry = nullptr);
  ExpositionServer() : ExpositionServer(Config{}) {}
  ~ExpositionServer();

  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  /// Binds, listens and spawns the accept thread.  Throws DomainError if
  /// the socket cannot be bound.  Idempotent while running.
  void start();
  /// Graceful shutdown: stops accepting, closes the listener, wakes and
  /// waits out every in-flight handler.  Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolves port 0 to the real ephemeral port).
  std::uint16_t port() const { return port_; }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void serve_loop();
  /// One connection, on its own handler thread: read the request (with
  /// timeout), dispatch, write the response, close.
  void handle_client(int fd);
  /// Full HTTP response (headers + body) for one non-streaming target.
  std::string respond(const std::string& method,
                      const std::string& target) const;
  /// The /rounds chunked NDJSON stream (only called with an OpsHub).
  void stream_rounds(int fd, const std::string& target);

  Config config_;
  const MetricsRegistry* registry_;
  int listen_fd_{-1};
  std::uint16_t port_{0};
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::chrono::steady_clock::time_point start_time_{};
  // Handler threads are detached; stop() waits for this count to drain.
  mutable InstrumentedMutex conn_mu_{"exposition.conns"};
  mutable std::condition_variable_any conn_cv_;
  std::size_t open_conns_ GUARDED_BY(conn_mu_){0};
};

}  // namespace rrf::obs
