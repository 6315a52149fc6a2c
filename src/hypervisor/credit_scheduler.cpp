#include "hypervisor/credit_scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "alloc/wmmf.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace rrf::hv {
namespace {

/// Records how much CPU demand the dispatch left unserved this call.
void record_schedule_metrics(const char* counter_name, double demand_ghz,
                             double served_ghz) {
  if (!rrf::obs::metrics_enabled()) return;
  obs::metrics().counter(counter_name).add();
  static obs::Histogram& unserved = obs::metrics().histogram(
      "credit.unserved_ghz", obs::default_magnitude_bounds());
  unserved.observe(std::max(0.0, demand_ghz - served_ghz));
}

}  // namespace
}  // namespace rrf::hv

namespace rrf::hv {

CreditScheduler::CreditScheduler(double capacity_ghz, SchedulerMode mode)
    : capacity_ghz_(capacity_ghz), mode_(mode) {
  RRF_REQUIRE(capacity_ghz > 0.0, "node CPU capacity must be positive");
}

std::size_t CreditScheduler::add_vm(double weight, std::size_t vcpus,
                                    double cap_ghz) {
  RRF_REQUIRE(weight > 0.0, "VM weight must be positive");
  RRF_REQUIRE(vcpus >= 1, "VM needs at least one vCPU");
  vms_.push_back(Vm{weight, cap_ghz, vcpus});
  return vms_.size() - 1;
}

void CreditScheduler::set_weight(std::size_t vm, double weight) {
  RRF_REQUIRE(vm < vms_.size(), "unknown VM");
  RRF_REQUIRE(weight > 0.0, "VM weight must be positive");
  vms_[vm].weight = weight;
}

void CreditScheduler::set_cap(std::size_t vm, double cap_ghz) {
  RRF_REQUIRE(vm < vms_.size(), "unknown VM");
  vms_[vm].cap_ghz = cap_ghz;
}

double CreditScheduler::weight(std::size_t vm) const {
  RRF_REQUIRE(vm < vms_.size(), "unknown VM");
  return vms_[vm].weight;
}

double CreditScheduler::cap(std::size_t vm) const {
  RRF_REQUIRE(vm < vms_.size(), "unknown VM");
  return vms_[vm].cap_ghz;
}

double CreditScheduler::effective_demand(const Vm& vm, double demand) const {
  // A VM can at most saturate its vCPUs; a positive cap bounds it further.
  double d = std::min(demand, static_cast<double>(vm.vcpus) * core_ghz_);
  if (vm.cap_ghz > 0.0) d = std::min(d, vm.cap_ghz);
  return std::max(0.0, d);
}

std::vector<double> CreditScheduler::schedule(
    std::span<const double> demands_ghz) const {
  std::vector<double> out(vms_.size());
  Scratch scratch;
  schedule_with(demands_ghz, scratch, out);
  return out;
}

void CreditScheduler::schedule_into(std::span<const double> demands_ghz,
                                    std::span<double> out) {
  schedule_with(demands_ghz, scratch_, out);
}

void CreditScheduler::schedule_with(std::span<const double> demands_ghz,
                                    Scratch& scratch,
                                    std::span<double> out) const {
  RRF_REQUIRE(demands_ghz.size() == vms_.size(),
              "one demand per registered VM required");
  RRF_REQUIRE(out.size() == vms_.size(), "one output per registered VM");
  const std::size_t n = vms_.size();
  std::vector<double>& eff = scratch.eff;
  std::vector<double>& weights = scratch.weights;
  eff.resize(n);
  weights.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    eff[i] = effective_demand(vms_[i], demands_ghz[i]);
    weights[i] = vms_[i].weight;
  }

  if (mode_ == SchedulerMode::kNonWorkConserving) {
    // Hard proportional shares: no redistribution of unused cycles.
    const double total_weight =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::min(eff[i], capacity_ghz_ * weights[i] / total_weight);
    }
  } else {
    // Work-conserving: the fluid limit of credit accounting is weighted
    // max-min with demand caps.
    alloc::weighted_max_min_into(capacity_ghz_, eff, weights, out,
                                 scratch.order);
  }
  record_schedule_metrics("credit.schedule_calls",
                          std::accumulate(eff.begin(), eff.end(), 0.0),
                          std::accumulate(out.begin(), out.end(), 0.0));
}

std::vector<double> CreditScheduler::schedule_sliced(
    std::span<const double> demands_ghz, double window_s,
    double slice_s) const {
  RRF_REQUIRE(demands_ghz.size() == vms_.size(),
              "one demand per registered VM required");
  RRF_REQUIRE(window_s > 0.0 && slice_s > 0.0, "positive window and slice");
  const std::size_t n = vms_.size();

  // Remaining CPU-seconds each VM wants this window and the cap on how
  // many it may consume.
  std::vector<double> want(n), got(n, 0.0), credits(n, 0.0);
  const double total_weight = std::accumulate(
      vms_.begin(), vms_.end(), 0.0,
      [](double acc, const Vm& v) { return acc + v.weight; });
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = effective_demand(vms_[i], demands_ghz[i]) * window_s;
  }

  double elapsed = 0.0;
  while (elapsed < window_s - 1e-12) {
    const double dt = std::min(slice_s, window_s - elapsed);
    elapsed += dt;
    const double slice_capacity = capacity_ghz_ * dt;

    // Accounting: refill credits in proportion to weights.
    for (std::size_t i = 0; i < n; ++i) {
      credits[i] += slice_capacity * vms_[i].weight / total_weight;
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return credits[a] > credits[b];
    });

    // Pass 1 (UNDER): a VM may consume up to its positive credit balance —
    // this is what enforces weight-proportionality.
    double available = slice_capacity;
    std::vector<double> slice_got(n, 0.0);
    for (std::size_t i : order) {
      if (available <= 0.0) break;
      const double vcpu_ceiling =
          static_cast<double>(vms_[i].vcpus) * core_ghz_ * dt;
      const double take = std::min(
          {want[i] - got[i], available, vcpu_ceiling, credits[i]});
      if (take <= 0.0) continue;
      got[i] += take;
      slice_got[i] = take;
      credits[i] -= take;
      available -= take;
    }
    // Pass 2 (OVER, work-conserving only): leftover cycles flow to any VM
    // with residual demand regardless of its credit state.
    if (mode_ == SchedulerMode::kWorkConserving) {
      for (std::size_t i : order) {
        if (available <= 0.0) break;
        const double vcpu_ceiling =
            static_cast<double>(vms_[i].vcpus) * core_ghz_ * dt;
        const double take =
            std::min({want[i] - got[i], available,
                      vcpu_ceiling - slice_got[i]});
        if (take <= 0.0) continue;
        got[i] += take;
        slice_got[i] += take;
        credits[i] -= take;
        available -= take;
      }
    }
  }

  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = got[i] / window_s;
  record_schedule_metrics(
      "credit.schedule_sliced_calls",
      std::accumulate(want.begin(), want.end(), 0.0) / window_s,
      std::accumulate(out.begin(), out.end(), 0.0));
  return out;
}

}  // namespace rrf::hv
