#include "alloc/policy.hpp"

#include <algorithm>

#include "alloc/contract_checks.hpp"
#include "alloc/drf.hpp"
#include "alloc/irt.hpp"
#include "alloc/rrf.hpp"
#include "alloc/tshirt.hpp"
#include "alloc/wmmf.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"

namespace rrf::alloc {

namespace {

/// `iwa` over flat entities.  Each entity is a single-VM tenant whose
/// tenant level is its own share (scaled down per type when the shares
/// oversell the pool), and IWA on one VM caps that share at its demand.
class IwaOnlyAllocator final : public Allocator {
 public:
  void allocate_flat(const ResourceVector& capacity, const FlatColumns& in,
                     Workspace& /*ws*/, std::span<double> grant,
                     ResourceVector& unallocated,
                     std::vector<double>* /*lambda*/) const override {
    validate_columns(capacity, in);
    const std::size_t p = capacity.size();
    const std::size_t m = in.entities;
    RRF_REQUIRE(grant.size() == p * m, "iwa column length mismatch");
    unallocated = ResourceVector(p);
    for (std::size_t k = 0; k < p; ++k) {
      const double* share = in.share.data() + k * m;
      const double* demand = in.demand.data() + k * m;
      double sold = 0.0;
      for (std::size_t i = 0; i < m; ++i) sold += share[i];
      double used = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        double own = share[i];
        if (sold > capacity[k]) own *= capacity[k] / sold;
        grant[k * m + i] = std::min(own, demand[i]);
        used += grant[k * m + i];
      }
      unallocated[k] = std::max(0.0, capacity[k] - used);
    }
    if (contract::armed()) {
      check_column_contracts("iwa", capacity, m, in.demand, grant,
                             unallocated, {.demand_capped = true});
    }
  }
};

IrtOptions strategy_proof() {
  IrtOptions options;
  options.cap_gain_at_contribution = true;
  return options;
}

}  // namespace

std::span<const Policy> policies() {
  static const TShirtAllocator tshirt;
  static const WmmfAllocator wmmf;
  static const DrfAllocator drf;
  static const SequentialDrfAllocator drf_seq;
  static const IrtAllocator irt;
  static const IwaOnlyAllocator iwa;
  static const RrfAllocator rrf;
  static const RrfAllocator rrf_sp(strategy_proof());
  using enum PolicyKind;
  using enum PolicyLevel;
  static const Policy table[] = {
      // name     kind      paper  level    allocator rrf      banks
      {"tshirt",  kTshirt,  true,  kStatic, &tshirt,  nullptr, false},
      {"wmmf",    kWmmf,    true,  kFlat,   &wmmf,    nullptr, false},
      {"drf",     kDrf,     true,  kFlat,   &drf,     nullptr, false},
      {"drf-seq", kDrfSeq,  false, kFlat,   &drf_seq, nullptr, false},
      {"irt",     kIrt,     false, kFlat,   &irt,     nullptr, false},
      {"iwa",     kIwaOnly, true,  kTenant, &iwa,     nullptr, false},
      {"rrf",     kRrf,     true,  kTenant, &rrf,     &rrf,    false},
      {"rrf-sp",  kRrfSp,   false, kTenant, &rrf_sp,  &rrf_sp, false},
      {"rrf-lt",  kRrfLt,   false, kTenant, &rrf,     &rrf,    true},
  };
  return table;
}

const Policy& policy(PolicyKind kind) {
  for (const Policy& p : policies()) {
    if (p.kind == kind) return p;
  }
  throw DomainError("policy kind " +
                    std::to_string(static_cast<int>(kind)) +
                    " has no row in the policy table");
}

const Policy& policy(std::string_view name) {
  for (const Policy& p : policies()) {
    if (p.name == name) return p;
  }
  throw DomainError("unknown policy '" + std::string(name) +
                    "'; valid policies: " + join_policy_names(", "));
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const Policy& p : policies()) names.emplace_back(p.name);
  return names;
}

std::string join_policy_names(std::string_view separator) {
  std::string out;
  for (const Policy& p : policies()) {
    if (!out.empty()) out += separator;
    out += p.name;
  }
  return out;
}

}  // namespace rrf::alloc
