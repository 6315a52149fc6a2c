// Free-riding and lying, demonstrated (paper Sections II-B and IV-C).
//
// Scenario: three tenants share a pool.  "Honest" and "Giver" report their
// real demands; "Rider" deliberately bought less than it needs and
// contributes nothing.  We show what each policy hands the rider, and what
// happens when a tenant lies about its demand.
#include <iostream>

#include "alloc/policy.hpp"
#include "alloc/properties.hpp"
#include "common/pricing.hpp"
#include "common/table.hpp"

int main() {
  using namespace rrf;
  using alloc::AllocationEntity;
  using enum alloc::PolicyKind;

  const PricingModel pricing = PricingModel::example_default();

  // Pool: <20 GHz, 10 GB> = <2000, 2000> shares.
  const ResourceVector pool = pricing.shares_for(ResourceVector{20.0, 10.0});

  std::vector<AllocationEntity> tenants(3);
  // Giver: bought a lot, currently uses little CPU — real contributor.
  tenants[0].initial_share = ResourceVector{800.0, 800.0};
  tenants[0].demand = ResourceVector{400.0, 1000.0};
  tenants[0].name = "Giver";
  // Honest: demand slightly above its shares on CPU, frees memory.
  tenants[1].initial_share = ResourceVector{700.0, 700.0};
  tenants[1].demand = ResourceVector{900.0, 500.0};
  tenants[1].name = "Honest";
  // Rider: bought little, wants much, contributes nothing.
  tenants[2].initial_share = ResourceVector{500.0, 500.0};
  tenants[2].demand = ResourceVector{900.0, 700.0};
  tenants[2].name = "Rider";

  TextTable table("Who feeds the free rider?  (shares granted)");
  table.header({"Policy", "Giver", "Honest", "Rider",
                "Rider gain over its shares"});
  for (const alloc::PolicyKind kind : {kTshirt, kWmmf, kDrf, kRrf, kRrfSp}) {
    const alloc::Policy& policy = alloc::policy(kind);
    const alloc::AllocationResult r =
        policy.allocator->allocate(pool, tenants);
    const double gain =
        (r.allocations[2] - tenants[2].initial_share).sum();
    table.row({std::string(policy.name), r.allocations[0].to_string(0),
               r.allocations[1].to_string(0), r.allocations[2].to_string(0),
               TextTable::num(gain, 0)});
  }
  table.print(std::cout);

  std::cout << "\nUnder WMMF/DRF the rider walks away with other tenants'"
               " surplus;\nunder RRF its gain is zero: no contribution,"
               " no gain.\n\n";

  // ---- Lying about demand ----
  std::cout << "Does lying pay?  The Honest tenant tries misreporting its "
               "demand\n(its real demand stays <900, 500> shares):\n\n";
  TextTable lies("usable shares (min of grant and true demand)");
  const alloc::PolicyKind liars[] = {kWmmf, kDrf, kRrf, kRrfSp};
  std::vector<std::string> lies_header{"Claim"};
  for (const alloc::PolicyKind kind : liars) {
    lies_header.emplace_back(alloc::policy(kind).name);
  }
  lies.header(lies_header);
  const ResourceVector true_demand = tenants[1].demand;
  const ResourceVector claims[] = {
      {900.0, 500.0},   // the truth
      {1400.0, 900.0},  // inflate everything
      {900.0, 300.0},   // under-report memory (pose as a contributor)
      {500.0, 500.0},   // under-report CPU
  };
  for (const ResourceVector& claim : claims) {
    tenants[1].demand = claim;
    std::vector<std::string> row{claim.to_string(0)};
    for (const alloc::PolicyKind kind : liars) {
      const alloc::AllocationResult r =
          alloc::policy(kind).allocator->allocate(pool, tenants);
      row.push_back(TextTable::num(
          alloc::satisfied_value(r.allocations[1], true_demand), 0));
    }
    lies.row(std::move(row));
  }
  tenants[1].demand = true_demand;
  lies.print(std::cout);

  std::cout << "\nRead each column top-down: if any lie beats the truthful"
               " first row,\nthe policy is manipulable.  rrf-sp caps gains"
               " at contributions, so no\nmisreport ever beats honesty.\n";
  return 0;
}
