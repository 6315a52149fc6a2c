// Shared declarations of the repository benchmark (perfbench/README.md).
//
// The benchmark drives the library only through its public entry points:
// sim::make_synthetic_scenario / sim::fill_scenario, sim::run_simulation
// with a per-window observer, and on the read side
// obs::FlightRecording::load_file, obs::JournalData::load_file and
// sim::replay_recording.  Timed runs measure the engine with every
// in-program profiler, tracer and the heap counter off; a separate traced
// run records spans from this benchmark's own files around each call it
// makes into a layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/flightrec.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

using rrf::json::Value;

// ---- clocks and order statistics ----

std::int64_t now_ns();
double seconds_between(std::int64_t begin_ns, std::int64_t end_ns);
double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p);

// ---- heap counter (heap_counter.cpp) ----

/// Heap calls (malloc/calloc/realloc) and requested bytes counted while
/// the counter is on; the totals only ever grow.
struct HeapCount {
  std::uint64_t allocs{0};
  std::uint64_t bytes{0};
};
void set_heap_counting(bool on);
HeapCount heap_count();

// ---- spans (spans.cpp) ----

/// In-memory span log for the traced run.  Every span carries its name,
/// start, end, parent span and the heap calls made inside it; per-name
/// totals are kept for every span, raw spans up to a fixed cap, and the
/// raw spans are written out as JSONL when the benchmark ends.
class SpanLog {
 public:
  struct Totals {
    std::uint64_t count{0};
    std::int64_t ns{0};
    std::uint64_t allocs{0};
    std::uint64_t bytes{0};
  };

  explicit SpanLog(std::size_t raw_cap = 100000);

  /// Opens a span under `parent` (-1 for a root); returns its id.  `name`
  /// must have static storage duration.
  int open(const char* name, int parent);
  /// Closes span `id`; returns its duration in nanoseconds.
  std::int64_t close(int id);
  /// Records an already-timed span (heap calls not attributed).
  void add(const char* name, int parent, std::int64_t start_ns,
           std::int64_t end_ns);

  Totals totals(const std::string& name) const;
  std::size_t recorded() const { return raw_.size(); }
  std::size_t dropped() const { return dropped_; }
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    int id;
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t allocs;
    std::uint64_t bytes;
  };
  struct Open {
    int id;
    const char* name;
    int parent;
    std::int64_t start_ns;
    HeapCount heap;
  };
  void finish(const Open& open, std::int64_t end_ns, HeapCount heap);

  std::size_t raw_cap_;
  std::vector<Span> raw_;
  std::size_t dropped_{0};
  std::vector<Open> stack_;  ///< open spans, innermost last
  int next_id_{0};
  std::vector<std::pair<const char*, Totals>> totals_;
};

// ---- output checks (checks.cpp) ----

/// Per-window output checks behind `failed_ratio`, plus the snapshot
/// digest that pins bit-exact allocations.
class WindowChecker {
 public:
  /// `paid_shares` is the total share value of every placed VM: the
  /// engine's ledger conserves it, so the tenants' positions must sum to
  /// it every window.
  WindowChecker(double paid_shares, std::size_t tenants);

  /// Conservation (sum of positions == paid shares within 1e-9 relative)
  /// and finiteness of every position, demand and score.  Returns false
  /// when the window fails; folds the snapshot into the digest either way.
  bool check(const rrf::sim::WindowSnapshot& snapshot);

  std::uint64_t digest() const { return digest_; }
  /// Worst relative conservation error seen so far.
  double worst_conservation_error() const { return worst_error_; }

 private:
  void fold(const void* data, std::size_t bytes);

  double paid_shares_;
  std::size_t tenants_;
  std::uint64_t digest_;
  double worst_error_{0.0};
};

/// Total share value of the scenario's placed VMs.
double paid_shares(const rrf::sim::Scenario& scenario);

std::string digest_hex(std::uint64_t digest);

/// Runs the checker on a small scenario unperturbed and with one
/// perturbed snapshot; returns true when exactly that window fails and
/// the digest moves.
bool checker_self_test();

// ---- environment (env.cpp) ----

/// Build type and flags, profiler state, nproc, effective parallelism
/// and the library's build-info stamp.
Value environment_block();
double peak_rss_mb();

// ---- workloads (workloads.cpp) ----

enum Sink : unsigned {
  kFlightRec = 1u << 0,
  kJournal = 1u << 1,
  kOpsHub = 1u << 2,
  kIncidents = 1u << 3,
  kAudit = 1u << 4,
};
inline constexpr unsigned kAllSinks =
    kFlightRec | kJournal | kOpsHub | kIncidents | kAudit;

struct WorkloadSpec {
  std::string name;
  /// Builds the scenario from the seed (sim::make_synthetic_scenario or
  /// sim::fill_scenario).
  rrf::sim::Scenario (*build)(std::uint64_t seed){nullptr};
  /// Policies run back to back in every pass.
  std::vector<rrf::sim::PolicyKind> policies;
  rrf::sim::EngineConfig engine;
  /// Windows each policy runs per pass (fixed, so the digest is too).
  std::size_t windows{0};
  /// Sinks attached in the timed passes; the recording and journal are
  /// read back and the recording replayed after every pass.
  unsigned sinks{0};
  /// Percentile reported as window_tail_ms: the highest one with at least
  /// ten measured windows beyond it at the workload's run length.
  double tail_percentile{99.0};
  /// Traced run: windows for the layer driver, for the kernel-input
  /// fidelity check and for each sink-cost pass.
  std::size_t layer_windows{0};
  std::size_t fidelity_windows{0};
  std::size_t sink_windows{0};
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

struct RunOptions {
  std::uint64_t seed{0};
  double seconds{10.0};
  std::string work_dir;    ///< scratch space for recordings and journals
  std::string spans_path;  ///< traced run: where the raw spans go
  std::optional<std::uint64_t> expect_digest;
};

struct RunReport {
  rrf::json::Object metrics;  ///< name -> {"value", "unit"}
  rrf::json::Object details;
  std::size_t attempted{0};
  std::size_t failed{0};
};

RunReport run_timed(const WorkloadSpec& spec, const RunOptions& options);
RunReport run_traced(const WorkloadSpec& spec, const RunOptions& options);

void add_metric(rrf::json::Object& metrics, const std::string& name,
                double value, const char* unit);

// ---- layer driver (layers.cpp) ----

/// What the layer driver measured over its windows.
struct LayerReport {
  std::size_t windows{0};
  std::size_t node_rounds{0};
  std::size_t vm_rounds{0};
  /// Mean wall time per window of the layer calls one engine window
  /// makes for each policy of the workload (demand generation, predictor,
  /// kernel, surplus pass and, when the workload actuates, actuators).
  std::vector<double> policy_window_s;
  std::size_t reorder_changed{0};
  std::size_t reorder_compared{0};
  /// Kernel-input fidelity: slots compared against the flight recordings
  /// and slots whose entitlement differed in any bit.
  std::size_t fidelity_windows{0};
  std::size_t fidelity_failed_windows{0};
  std::size_t fidelity_slots{0};
  std::size_t fidelity_mismatches{0};
};

/// Feeds each node's real inputs, rebuilt through public calls, to the
/// policy kernels, predictor, demand generators and actuators for
/// `windows` windows, recording one span per call.  When `references`
/// holds one flight recording per workload policy, the entitlements after
/// the surplus pass are compared with the recorded ones bit for bit on
/// the recorded windows.
LayerReport drive_layers(const WorkloadSpec& spec,
                         const rrf::sim::Scenario& scenario,
                         std::size_t windows,
                         const std::vector<rrf::obs::FlightRecording>*
                             references,
                         SpanLog& spans);

}  // namespace perfbench
