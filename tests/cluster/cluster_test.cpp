#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rrf::cluster {
namespace {

TenantSpec tenant_with(std::string name,
                       std::vector<ResourceVector> provisions) {
  TenantSpec t;
  t.name = std::move(name);
  for (auto& p : provisions) {
    VmSpec vm;
    vm.provisioned = std::move(p);
    t.vms.push_back(std::move(vm));
  }
  return t;
}

TEST(Cluster, PaperHostCapacity) {
  const HostSpec h = paper_host();
  // 22 usable cores at 3.07 GHz, 23 GB usable.
  EXPECT_NEAR(h.capacity[Resource::kCpu], 67.54, 1e-9);
  EXPECT_DOUBLE_EQ(h.capacity[Resource::kRam], 23.0);
}

TEST(Cluster, TenantAggregation) {
  Cluster cluster({paper_host("a"), paper_host("b")},
                  PricingModel::example_default());
  cluster.add_tenant(tenant_with(
      "A", {ResourceVector{2.0, 1.0}, ResourceVector{4.0, 3.0}}));
  EXPECT_TRUE(cluster.tenants()[0].total_provisioned().approx_equal(
      ResourceVector{6.0, 4.0}, 1e-12));
  // f1: 6 GHz * 100 + 4 GB * 200 per type.
  EXPECT_TRUE(cluster.tenant_shares(0).approx_equal(
      ResourceVector{600.0, 800.0}, 1e-9));
  EXPECT_TRUE(cluster.vm_shares(0, 1).approx_equal(
      ResourceVector{400.0, 600.0}, 1e-9));
}

TEST(Cluster, TotalCapacityAndReservation) {
  Cluster cluster({paper_host("a"), paper_host("b")},
                  PricingModel::example_default());
  cluster.add_tenant(tenant_with("A", {ResourceVector{60.0, 20.0}}));
  EXPECT_TRUE(cluster.total_capacity().approx_equal(
      ResourceVector{135.08, 46.0}, 1e-9));
  EXPECT_TRUE(cluster.reservation_fits());
  cluster.add_tenant(tenant_with("B", {ResourceVector{100.0, 20.0}}));
  EXPECT_FALSE(cluster.reservation_fits());
}

TEST(Cluster, DefaultMaxMemoryIsHostCapacity) {
  Cluster cluster({paper_host()}, PricingModel::example_default());
  cluster.add_tenant(tenant_with("A", {ResourceVector{1.0, 1.0}}));
  EXPECT_DOUBLE_EQ(cluster.tenants()[0].vms[0].max_mem_gb, 23.0);

  // Heterogeneous hosts whose largest memory is neither first nor last
  // (and not on the host with the most CPU): a VM without a ceiling of its
  // own gets the largest, in every tenant added; one that sets it keeps it.
  Cluster mixed({HostSpec{"small", ResourceVector{10.0, 8.0}},
                 HostSpec{"big", ResourceVector{10.0, 64.0}},
                 HostSpec{"fast", ResourceVector{40.0, 32.0}}},
                PricingModel::example_default());
  TenantSpec own = tenant_with(
      "B", {ResourceVector{1.0, 1.0}, ResourceVector{1.0, 2.0}});
  own.vms[1].max_mem_gb = 12.5;
  mixed.add_tenant(own);
  mixed.add_tenant(tenant_with("C", {ResourceVector{1.0, 1.0}}));
  EXPECT_DOUBLE_EQ(mixed.tenants()[0].vms[0].max_mem_gb, 64.0);
  EXPECT_DOUBLE_EQ(mixed.tenants()[0].vms[1].max_mem_gb, 12.5);
  EXPECT_DOUBLE_EQ(mixed.tenants()[1].vms[0].max_mem_gb, 64.0);
}

TEST(Cluster, ValidatesInput) {
  EXPECT_THROW(Cluster({}, PricingModel::example_default()),
               PreconditionError);
  Cluster cluster({paper_host()}, PricingModel::example_default());
  EXPECT_THROW(cluster.add_tenant(TenantSpec{}), PreconditionError);
  EXPECT_THROW(cluster.tenant_shares(0), PreconditionError);
}

}  // namespace
}  // namespace rrf::cluster
