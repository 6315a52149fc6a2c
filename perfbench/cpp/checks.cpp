// Output checks behind failed_ratio and the snapshot digest.
#include <cmath>
#include <cstdio>
#include <set>

#include "bench.hpp"
#include "sim/synthetic.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
/// The ledger conserves the paid shares up to summation rounding (the
/// worst seen is ~7e-14 relative, at 102k VMs).
constexpr double kConservationTolerance = 1e-9;

bool all_finite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

WindowChecker::WindowChecker(double paid_shares, std::size_t tenants)
    : paid_shares_(paid_shares), tenants_(tenants), digest_(kFnvOffset) {}

void WindowChecker::fold(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    digest_ = (digest_ ^ p[i]) * kFnvPrime;
  }
}

bool WindowChecker::check(const rrf::sim::WindowSnapshot& snapshot) {
  const std::uint64_t window = snapshot.window;
  fold(&window, sizeof window);
  for (const std::vector<double>* v :
       {&snapshot.tenant_position, &snapshot.tenant_demand,
        &snapshot.tenant_score}) {
    fold(v->data(), v->size() * sizeof(double));
  }

  if (snapshot.tenant_position.size() != tenants_ ||
      snapshot.tenant_demand.size() != tenants_ ||
      snapshot.tenant_score.size() != tenants_) {
    return false;
  }
  if (!all_finite(snapshot.tenant_position) ||
      !all_finite(snapshot.tenant_demand) ||
      !all_finite(snapshot.tenant_score)) {
    return false;
  }
  double total = 0.0;
  for (double v : snapshot.tenant_position) total += v;
  const double error = std::abs(total - paid_shares_) / paid_shares_;
  if (error > worst_error_) worst_error_ = error;
  return error <= kConservationTolerance;
}

double paid_shares(const rrf::sim::Scenario& scenario) {
  const std::set<std::pair<std::size_t, std::size_t>> unplaced(
      scenario.unplaced.begin(), scenario.unplaced.end());
  const auto& tenants = scenario.cluster.tenants();
  double total = 0.0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (std::size_t j = 0; j < tenants[t].vms.size(); ++j) {
      if (unplaced.contains({t, j})) continue;
      total += scenario.cluster.vm_shares(t, j).sum();
    }
  }
  return total;
}

std::string digest_hex(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

bool checker_self_test() {
  rrf::sim::SyntheticConfig synthetic;
  synthetic.nodes = 4;
  synthetic.vms_per_node = 8;
  synthetic.tenants = 4;
  const rrf::sim::Scenario scenario =
      rrf::sim::make_synthetic_scenario(synthetic);
  rrf::sim::EngineConfig config;
  config.duration = 12 * config.window;
  config.use_actuators = false;
  config.parallel_nodes = false;

  // Runs the engine once; `perturb` names the window whose snapshot gets
  // one position nudged by a part in a million before the check.
  const auto run = [&](std::optional<std::size_t> perturb) {
    WindowChecker checker(paid_shares(scenario),
                          scenario.cluster.tenants().size());
    std::vector<std::size_t> failed;
    config.observer = [&](const rrf::sim::WindowSnapshot& snapshot) {
      if (perturb == snapshot.window) {
        rrf::sim::WindowSnapshot copy = snapshot;
        copy.tenant_position[0] *= 1.0 + 1e-6;
        if (!checker.check(copy)) failed.push_back(snapshot.window);
      } else if (!checker.check(snapshot)) {
        failed.push_back(snapshot.window);
      }
    };
    rrf::sim::run_simulation(scenario, config);
    return std::make_pair(failed, checker.digest());
  };

  const auto [clean_failed, clean_digest] = run(std::nullopt);
  const auto [bad_failed, bad_digest] = run(std::size_t{5});
  const bool ok = clean_failed.empty() && bad_failed.size() == 1 &&
                  bad_failed.front() == 5 && bad_digest != clean_digest;
  std::fprintf(stderr,
               "self-test: clean run %zu failed window(s); perturbed run "
               "%zu failed window(s)%s; digests %s vs %s\n",
               clean_failed.size(), bad_failed.size(),
               bad_failed.size() == 1 && bad_failed.front() == 5
                   ? " (window 5, the perturbed one)"
                   : "",
               digest_hex(clean_digest).c_str(),
               digest_hex(bad_digest).c_str());
  return ok;
}

}  // namespace perfbench
