// Reproduces Table I: allocation policies on Example 1.
//
// Three VMs share a pool of <20 GHz, 10 GB>; initial shares are 1:1:2;
// demands are VM1 <6,3>, VM2 <8,1>, VM3 <8,8>.  The paper prints the
// T-shirt, WMMF and WDRF rows; we add canonical DRF and RRF so the
// free-riding story is visible in one table.  All policies run in the
// share domain (1 GHz = 100 shares, 1 GB = 200 shares, the paper's
// example pricing) and results are converted back to capacity units.
#include <iostream>
#include <vector>

#include "alloc/policy.hpp"
#include "common/pricing.hpp"
#include "common/table.hpp"

namespace {

using rrf::PricingModel;
using rrf::ResourceVector;
using rrf::TextTable;
namespace alloc = rrf::alloc;

std::string cell(const ResourceVector& v) {
  return "<" + TextTable::num(v[0], 2) + " GHz, " + TextTable::num(v[1], 2) +
         " GB>";
}

}  // namespace

int main() {
  const PricingModel pricing = PricingModel::example_default();
  const ResourceVector capacity{20.0, 10.0};
  const ResourceVector capacity_shares = pricing.shares_for(capacity);

  const ResourceVector demands_ghz[3] = {
      {6.0, 3.0}, {8.0, 1.0}, {8.0, 8.0}};
  std::vector<alloc::AllocationEntity> vms(3);
  vms[0].initial_share = ResourceVector{500.0, 500.0};
  vms[1].initial_share = ResourceVector{500.0, 500.0};
  vms[2].initial_share = ResourceVector{1000.0, 1000.0};
  for (std::size_t i = 0; i < 3; ++i) {
    vms[i].demand = pricing.shares_for(demands_ghz[i]);
    vms[i].weight = vms[i].initial_share.sum();
    vms[i].name = "VM" + std::to_string(i + 1);
  }

  TextTable table(
      "Table I — policy comparison on Example 1 (pool <20 GHz, 10 GB>)");
  table.header({"Policy", "VM1", "VM2", "VM3", "Total", "Idle"});
  table.row({"Initial shares", "<500, 500>", "<500, 500>", "<1000, 1000>",
             "<2000, 2000>", ""});
  table.row({"Demands", cell(demands_ghz[0]), cell(demands_ghz[1]),
             cell(demands_ghz[2]), "<22 GHz, 12 GB>", ""});

  struct Row {
    const char* label;
    alloc::PolicyKind policy;
  };
  using enum alloc::PolicyKind;
  const Row rows[] = {
      {"T-shirt", kTshirt},       {"WMMF", kWmmf},
      {"WDRF (paper)", kDrfSeq},  {"DRF (canonical)", kDrf},
      {"RRF", kRrf},
  };
  for (const Row& row : rows) {
    const alloc::AllocationResult r =
        alloc::policy(row.policy).allocator->allocate(capacity_shares, vms);
    table.row({row.label, cell(pricing.capacity_for(r.allocations[0])),
               cell(pricing.capacity_for(r.allocations[1])),
               cell(pricing.capacity_for(r.allocations[2])),
               cell(pricing.capacity_for(r.total())),
               cell(pricing.capacity_for(r.unallocated))});
  }
  table.print(std::cout);

  std::cout <<
      "\nPaper's rows: T-shirt <5,2.5>/<5,2.5>/<10,5>;"
      " WMMF <6,3>/<6,1>/<8,6>; WDRF <6,3>/<7,1>/<7,6>.\n"
      "Note VM1 free-rides under WMMF and WDRF (it contributes nothing\n"
      "yet is satisfied first); under RRF it is capped at its share.\n";
  return 0;
}
