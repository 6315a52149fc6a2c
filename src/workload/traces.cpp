#include "workload/traces.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace rrf::wl {

TraceWorkload::TraceWorkload(std::vector<double> split, double jitter,
                             std::uint64_t seed)
    : split_(std::move(split)), jitter_(jitter), seed_(seed) {
  RRF_REQUIRE(!split_.empty(), "a workload needs at least one VM");
  const double sum = std::accumulate(split_.begin(), split_.end(), 0.0);
  RRF_REQUIRE(std::abs(sum - 1.0) < 1e-9, "vm split must sum to 1");
}

void TraceWorkload::normalize_mean(const ResourceVector& target_average) {
  RRF_REQUIRE(!trace_.empty(), "empty trace");
  const std::size_t p = trace_.front().size();
  ResourceVector sum(p);
  for (const auto& d : trace_) sum += d;
  for (std::size_t k = 0; k < p; ++k) {
    const double mean_k = sum[k] / static_cast<double>(trace_.size());
    if (mean_k <= 0.0) continue;
    const double scale = target_average[k] / mean_k;
    for (auto& d : trace_) d[k] *= scale;
  }
}

std::size_t TraceWorkload::index_for(Seconds t) const {
  RRF_ASSERT(!trace_.empty());
  const auto n = trace_.size();
  const auto raw = static_cast<long long>(std::floor(std::max(0.0, t)));
  return static_cast<std::size_t>(raw) % n;
}

ResourceVector TraceWorkload::demand_at(Seconds t) const {
  return trace_[index_for(t)];
}

std::vector<ResourceVector> TraceWorkload::vm_demands_at(Seconds t) const {
  std::vector<ResourceVector> out(split_.size());
  vm_demands_into(t, out);
  return out;
}

void TraceWorkload::vm_demands_into(Seconds t,
                                    std::span<ResourceVector> out) const {
  require_vm_count(split_.size(), out);
  const ResourceVector total = demand_at(t);
  const std::size_t n = split_.size();
  if (n == 1) {
    out[0] = total;
    return;
  }

  // Deterministic per-(VM, coarse-time) jitter: VM shares wander around
  // their split fractions on a ~60 s time scale, then are renormalized so
  // they still sum to the application total.  This creates the
  // intra-tenant imbalance IWA exists to fix without changing aggregates.
  // Each VM's weight waits in component 0 of its own output entry until
  // the sum is known.  VM j draws from fork epoch * 1000 + j; the epoch's
  // forks are made together, on the stack.
  const auto epoch = static_cast<std::uint64_t>(std::max(0.0, t) / 60.0);
  double wsum = 0.0;
  // rrf-hot-path: begin(workload.trace)
  Rng(seed_).for_each_fork(epoch * 1000, n, [&](std::size_t j, Rng& r) {
    const double factor = r.normal_in(1.0, jitter_, 0.25, 1.75);
    const double weight = split_[j] * factor;
    out[j] = ResourceVector(total.size());
    out[j][0] = weight;
    wsum += weight;
  });
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = total * (out[j][0] / wsum);
  }
  // rrf-hot-path: end(workload.trace)
}

namespace {

/// Smoothly interpolates between plateau levels with linear ramps.
double ramp(double t, double t0, double t1, double from, double to) {
  if (t <= t0) return from;
  if (t >= t1) return to;
  return from + (to - from) * (t - t0) / (t1 - t0);
}

}  // namespace

TpccWorkload::TpccWorkload(std::uint64_t seed, Seconds length)
    : TraceWorkload({0.3, 0.7}, 0.10, seed) {  // client VM, DB VM
  const auto spec = paper_demand_spec(WorkloadKind::kTpcc);
  const std::size_t n = static_cast<std::size_t>(length);
  trace_.reserve(n);

  // Irregular on-off CPU: exponential-ish burst/idle episodes.  The duty
  // cycle and levels are chosen so the long-run mean matches Table IV.
  Rng rng = Rng(seed).fork(0xF1CC);
  const double cpu_on = spec.peak[0] * 0.92;
  const double cpu_off = spec.average[0] * 0.35;
  // duty chosen so duty*on + (1-duty)*off == average.
  const double duty = (spec.average[0] - cpu_off) / (cpu_on - cpu_off);

  bool on = false;
  double remaining = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    if (remaining <= 0.0) {
      on = !on;
      // Mean episode lengths keep the target duty cycle (bursts ~45 s).
      const double mean = on ? 45.0 : 45.0 * (1.0 - duty) / duty;
      remaining = std::max(5.0, rng.exponential(1.0 / mean));
    }
    remaining -= 1.0;
    const double cpu = std::clamp(
        (on ? cpu_on : cpu_off) * rng.normal_in(1.0, 0.08, 0.7, 1.3), 0.0,
        spec.peak[0]);
    // Buffer-pool memory is largely decoupled from the burst cycle: it
    // hovers just below the provisioned average (leaving a small tradable
    // surplus) with rare checkpoint surges toward the Table IV peak.
    const bool surge = rng.bernoulli(0.01);
    const double ram = std::clamp(
        spec.average[1] *
            rng.normal_in(surge ? 1.22 : 0.94, 0.02, 0.8, 1.27),
        0.25, spec.peak[1]);
    trace_.push_back(ResourceVector{cpu, ram});
  }
  normalize_mean(spec.average);
}

RubbosWorkload::RubbosWorkload(std::uint64_t seed, Seconds length)
    : TraceWorkload({0.2, 0.25, 0.55}, 0.08, seed) {  // web, app, DB
  const auto spec = paper_demand_spec(WorkloadKind::kRubbos);
  const std::size_t n = static_cast<std::size_t>(length);
  trace_.reserve(n);

  // Cyclical pattern: alternating 500-user and 1000-user phases with ramps
  // (the paper alternates the two client populations).  High phase sits
  // near peak, low phase well below average, mean matches Table IV.
  //
  // Memory follows a much gentler, *lagged* swell: DB buffer pools and
  // app-server caches warm up well after load arrives and stay warm after
  // it leaves, with rare surges toward the Table IV peak.  The CPU/RAM
  // skew this creates is what makes RUBBoS the showcase for inter-tenant
  // trading: during a user surge the tenant still holds RAM surplus to
  // contribute, and in quiet phases it contributes CPU while its caches
  // stay populated.
  Rng rng = Rng(seed).fork(0x2BB5);
  const double period = 600.0;          // one full low+high cycle
  const double ramp_s = 60.0;           // session ramp-up/down
  const double mem_lag_s = 150.0;       // cache warm-up lag
  // Tenants' user populations are not synchronized: each instance starts
  // at a random point of its cycle (staggered like real client bases).
  const double phase0 = rng.uniform(0.0, period);
  const double hi_cpu = spec.peak[0] * 0.88;
  const double lo_cpu = 2.0 * spec.average[0] - hi_cpu;  // mean preserved
  const double hi_ram = spec.average[1] * 1.12;
  const double lo_ram = 2.0 * spec.average[1] - hi_ram;

  auto cycle_level = [&](double t, double lo, double hi) {
    const double phase =
        std::fmod(t + phase0 + static_cast<double>(n) * 4.0, period);
    if (phase < period / 2.0 - ramp_s) return lo;
    if (phase < period / 2.0) {
      return ramp(phase, period / 2.0 - ramp_s, period / 2.0, lo, hi);
    }
    if (phase < period - ramp_s) return hi;
    return ramp(phase, period - ramp_s, period, hi, lo);
  };

  for (std::size_t t = 0; t < n; ++t) {
    const double now = static_cast<double>(t);
    double cpu = cycle_level(now, lo_cpu, hi_cpu);
    const bool surge = rng.bernoulli(0.01);
    double ram = cycle_level(now - mem_lag_s, lo_ram, hi_ram) *
                 (surge ? 1.55 : 1.0);
    cpu = std::max(0.0, cpu * rng.normal_in(1.0, 0.06, 0.75, 1.25));
    ram = std::clamp(ram * rng.normal_in(1.0, 0.02, 0.9, 1.1), 0.5,
                     spec.peak[1]);
    trace_.push_back(ResourceVector{cpu, ram});
  }
  normalize_mean(spec.average);
}

KernelBuildWorkload::KernelBuildWorkload(std::uint64_t seed, Seconds length)
    : TraceWorkload({1.0}, 0.0, seed) {
  const auto spec = paper_demand_spec(WorkloadKind::kKernelBuild);
  const std::size_t n = static_cast<std::size_t>(length);
  trace_.reserve(n);

  // Steady compile with small noise; occasional short link-stage spikes.
  Rng rng = Rng(seed).fork(0xCE11);
  for (std::size_t t = 0; t < n; ++t) {
    const bool spike = rng.bernoulli(0.02);
    const double cpu = std::min(
        spec.peak[0],
        spec.average[0] * rng.normal_in(spike ? 1.4 : 0.99, 0.07, 0.6, 1.5));
    const double ram = std::clamp(
        spec.average[1] * rng.normal_in(1.0, 0.05, 0.7, 1.33), 0.25,
        spec.peak[1]);
    trace_.push_back(ResourceVector{cpu, ram});
  }
  normalize_mean(spec.average);
}

HadoopWorkload::HadoopWorkload(std::uint64_t seed, Seconds length)
    : TraceWorkload(
          // master + 10 workers; the master is light.
          {0.04, 0.096, 0.096, 0.096, 0.096, 0.096, 0.096, 0.096, 0.096,
           0.096, 0.096},
          0.05, seed) {
  const auto spec = paper_demand_spec(WorkloadKind::kHadoop);
  const std::size_t n = static_cast<std::size_t>(length);
  trace_.reserve(n);

  // Map stage (~95% of the run): stable demand with small fluctuation.
  // Reduce stage: CPU drops (shuffle/merge is I/O-heavier), memory eases.
  Rng rng = Rng(seed).fork(0x4ADD);
  const std::size_t map_end =
      static_cast<std::size_t>(0.95 * static_cast<double>(n));
  for (std::size_t t = 0; t < n; ++t) {
    const bool map_stage = t < map_end;
    const double base_cpu = map_stage ? spec.average[0] * 1.03
                                      : spec.average[0] * 0.45;
    // Mappers run slightly under their memory provision (spill buffers are
    // sized conservatively), leaving a small tradable surplus.
    const double base_ram = map_stage ? spec.average[1] * 0.96
                                      : spec.average[1] * 0.70;
    const double cpu = std::min(
        spec.peak[0], std::max(0.0, base_cpu *
                                        rng.normal_in(1.0, 0.03, 0.9, 1.1)));
    const double ram = std::clamp(
        base_ram * rng.normal_in(1.0, 0.02, 0.92, 1.08), 1.0, spec.peak[1]);
    trace_.push_back(ResourceVector{cpu, ram});
  }
  normalize_mean(spec.average);
}

}  // namespace rrf::wl
