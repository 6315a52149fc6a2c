#include "common/resource_vector.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace rrf {
namespace {

TEST(ResourceVector, DefaultIsTwoTypeZero) {
  ResourceVector v;
  EXPECT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(ResourceVector, InitializerListAndEnumAccess) {
  ResourceVector v{6.0, 3.0};
  EXPECT_DOUBLE_EQ(v[Resource::kCpu], 6.0);
  EXPECT_DOUBLE_EQ(v[Resource::kRam], 3.0);
  v[Resource::kRam] = 4.0;
  EXPECT_DOUBLE_EQ(v[1], 4.0);
}

TEST(ResourceVector, UniformBuilder) {
  const auto v = ResourceVector::uniform(3, 7.5);
  EXPECT_EQ(v.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(v[k], 7.5);
}

TEST(ResourceVector, Arithmetic) {
  ResourceVector a{1.0, 2.0};
  ResourceVector b{3.0, 5.0};
  EXPECT_EQ(a + b, (ResourceVector{4.0, 7.0}));
  EXPECT_EQ(b - a, (ResourceVector{2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (ResourceVector{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (ResourceVector{2.0, 4.0}));
  EXPECT_EQ(b / 2.0, (ResourceVector{1.5, 2.5}));
}

TEST(ResourceVector, ArityMismatchThrows) {
  ResourceVector a{1.0, 2.0};
  ResourceVector b{1.0, 2.0, 3.0};
  EXPECT_THROW(a += b, PreconditionError);
  EXPECT_THROW(a.all_le(b), PreconditionError);
}

TEST(ResourceVector, DivisionByZeroThrows) {
  ResourceVector a{1.0, 2.0};
  EXPECT_THROW(a /= 0.0, PreconditionError);
}

TEST(ResourceVector, Hadamard) {
  ResourceVector a{2.0, 3.0};
  a.hadamard(ResourceVector{10.0, 100.0});
  EXPECT_EQ(a, (ResourceVector{20.0, 300.0}));
}

TEST(ResourceVector, Reductions) {
  ResourceVector v{6.0, 3.0};
  EXPECT_DOUBLE_EQ(v.sum(), 9.0);
  EXPECT_DOUBLE_EQ(v.min(), 3.0);
  EXPECT_DOUBLE_EQ(v.max(), 6.0);
}

TEST(ResourceVector, DominantResource) {
  const ResourceVector capacity{20.0, 10.0};
  // 8 GHz of 20, 8 GB of 10: RAM dominates (paper Example 1, VM3).
  const ResourceVector vm3{8.0, 8.0};
  EXPECT_EQ(vm3.dominant(capacity), 1u);
  EXPECT_DOUBLE_EQ(vm3.dominant_share(capacity), 0.8);
  // 8 GHz, 1 GB: CPU dominates (VM2).
  const ResourceVector vm2{8.0, 1.0};
  EXPECT_EQ(vm2.dominant(capacity), 0u);
  EXPECT_DOUBLE_EQ(vm2.dominant_share(capacity), 0.4);
}

TEST(ResourceVector, DominantNeedsPositiveReference) {
  const ResourceVector v{1.0, 1.0};
  EXPECT_THROW(v.dominant(ResourceVector{1.0, 0.0}), PreconditionError);
}

TEST(ResourceVector, Comparisons) {
  const ResourceVector lo{1.0, 2.0};
  const ResourceVector hi{2.0, 2.0};
  EXPECT_TRUE(lo.all_le(hi));
  EXPECT_FALSE(hi.all_le(lo));
  EXPECT_TRUE(hi.all_ge(lo));
  EXPECT_TRUE(lo.all_le(lo));
  EXPECT_TRUE((ResourceVector{-1e-12, 0.0}).all_nonneg(1e-9));
  EXPECT_FALSE((ResourceVector{-1.0, 0.0}).all_nonneg());
}

TEST(ResourceVector, ApproxEqual) {
  const ResourceVector a{1.0, 2.0};
  EXPECT_TRUE(a.approx_equal(ResourceVector{1.0 + 1e-12, 2.0}));
  EXPECT_FALSE(a.approx_equal(ResourceVector{1.1, 2.0}));
  EXPECT_FALSE(a.approx_equal(ResourceVector{1.0, 2.0, 3.0}));
}

TEST(ResourceVector, ElementwiseMinMax) {
  const ResourceVector a{1.0, 5.0};
  const ResourceVector b{3.0, 2.0};
  EXPECT_EQ(ResourceVector::elementwise_min(a, b), (ResourceVector{1.0, 2.0}));
  EXPECT_EQ(ResourceVector::elementwise_max(a, b), (ResourceVector{3.0, 5.0}));
}

TEST(ResourceVector, SurplusAndDeficit) {
  const ResourceVector share{500.0, 500.0};
  const ResourceVector demand{800.0, 200.0};
  // Paper Table II VM2: contributes 300 RAM shares, needs 300 CPU shares.
  EXPECT_EQ(share.surplus_over(demand), (ResourceVector{0.0, 300.0}));
  EXPECT_EQ(share.deficit_under(demand), (ResourceVector{300.0, 0.0}));
}

TEST(ResourceVector, Clamped) {
  const ResourceVector v{-1.0, 10.0};
  const ResourceVector lo{0.0, 0.0};
  const ResourceVector hi{5.0, 5.0};
  EXPECT_EQ(v.clamped(lo, hi), (ResourceVector{0.0, 5.0}));
}

static_assert(std::is_trivially_copyable_v<ResourceVector>);

TEST(ResourceVector, ArityAboveTheInlineCapacityIsRejected) {
  EXPECT_EQ(ResourceVector::kInlineCapacity, 4u);
  EXPECT_EQ(ResourceVector(4).size(), 4u);
  EXPECT_THROW(ResourceVector(5), PreconditionError);
  EXPECT_THROW((ResourceVector{1.0, 2.0, 3.0, 4.0, 5.0}), PreconditionError);
  const std::vector<double> five(5, 1.0);
  EXPECT_THROW(ResourceVector(std::span<const double>(five)),
               PreconditionError);
  EXPECT_THROW(ResourceVector::uniform(5, 1.0), PreconditionError);
  try {
    static_cast<void>(ResourceVector(5));
    FAIL() << "arity 5 accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("limit of 4"), std::string::npos)
        << e.what();
  }
}

TEST(ResourceVector, Printing) {
  std::ostringstream os;
  os << ResourceVector{6.0, 3.0};
  EXPECT_EQ(os.str(), "<6.00, 3.00>");
  EXPECT_EQ((ResourceVector{1.234, 5.0}).to_string(1), "<1.2, 5.0>");
  EXPECT_EQ((ResourceVector{2.5, 0.0}).to_exact_string(), "<2.5, 0>");
  EXPECT_EQ((ResourceVector{1e-12, 2e12, -0.25}).to_exact_string(),
            "<1e-12, 2e+12, -0.25>");
  EXPECT_EQ((ResourceVector{0.1, 300.0}).to_exact_string(), "<0.1, 300>");
}

}  // namespace
}  // namespace rrf
