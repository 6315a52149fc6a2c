#include "sim/metrics.hpp"

#include <iomanip>
#include <ostream>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace rrf::sim {

TenantMetrics::TenantMetrics(std::string name, ResourceVector initial_shares)
    : name_(std::move(name)), initial_shares_(std::move(initial_shares)) {
  initial_total_ = initial_shares_.sum();
  RRF_REQUIRE(initial_total_ > 0.0, "tenant with zero initial shares");
}

void TenantMetrics::record_window(double position, double demand,
                                  double perf_score) {
  granted_total_ += position;
  perf_total_ += perf_score;
  ++windows_;
  demand_ratio_.push_back(demand / initial_total_);
  alloc_ratio_.push_back(position / initial_total_);
}

double TenantMetrics::beta() const {
  if (windows_ == 0) return 1.0;
  return granted_total_ / (static_cast<double>(windows_) * initial_total_);
}

double TenantMetrics::mean_perf() const {
  if (windows_ == 0) return 1.0;
  return perf_total_ / static_cast<double>(windows_);
}

double SimResult::fairness_geomean() const {
  std::vector<double> betas;
  betas.reserve(tenants.size());
  for (const auto& t : tenants) betas.push_back(t.beta());
  return geometric_mean_or(betas, 1.0);
}

double SimResult::perf_geomean() const {
  std::vector<double> perfs;
  perfs.reserve(tenants.size());
  for (const auto& t : tenants) perfs.push_back(t.mean_perf());
  return geometric_mean_or(perfs, 1.0);
}

double SimResult::allocator_load() const {
  if (alloc_invocations == 0 || window <= 0.0) return 0.0;
  return (phase_total(obs::Phase::kAllocate) /
          static_cast<double>(alloc_invocations)) /
         window;
}

void write_series_csv(std::ostream& os, const SimResult& result,
                      const std::vector<double>& (TenantMetrics::*series)()
                          const) {
  const std::size_t windows =
      result.tenants.empty() ? 0 : result.tenants.front().windows();
  os << "t_seconds";
  for (const TenantMetrics& tenant : result.tenants) os << ',' << tenant.name();
  os << '\n' << std::setprecision(6);
  for (std::size_t w = 0; w < windows; ++w) {
    os << static_cast<double>(w) * result.window;
    for (const TenantMetrics& tenant : result.tenants) {
      os << ',' << (tenant.*series)().at(w);
    }
    os << '\n';
  }
}

}  // namespace rrf::sim
