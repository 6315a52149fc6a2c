#include "alloc/entity_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "alloc/irt.hpp"
#include "common/error.hpp"

namespace rrf::alloc {
namespace {

TEST(EntityIo, ParsesTwoTypeCsv) {
  std::stringstream in(
      "name,share_0,share_1,demand_0,demand_1\n"
      "A,500,500,600,300\n"
      "B,1000,1000,800,1600\n");
  const auto entities = read_entities_csv(in);
  ASSERT_EQ(entities.size(), 2u);
  EXPECT_EQ(entities[0].name, "A");
  EXPECT_TRUE(entities[0].initial_share.approx_equal({500.0, 500.0}, 1e-12));
  EXPECT_TRUE(entities[1].demand.approx_equal({800.0, 1600.0}, 1e-12));
}

TEST(EntityIo, ParsesThreeTypeCsv) {
  std::stringstream in(
      "name,s0,s1,s2,d0,d1,d2\n"
      "A,1,2,3,4,5,6\n");
  const auto entities = read_entities_csv(in);
  ASSERT_EQ(entities.size(), 1u);
  EXPECT_EQ(entities[0].initial_share.size(), 3u);
  EXPECT_TRUE(entities[0].demand.approx_equal({4.0, 5.0, 6.0}, 1e-12));
}

TEST(EntityIo, RoundTrips) {
  std::vector<AllocationEntity> entities(2);
  entities[0].name = "x";
  entities[0].initial_share = ResourceVector{500.25, 500.0};
  entities[0].demand = ResourceVector{600.125, 300.0};
  entities[1].name = "y";
  entities[1].initial_share = ResourceVector{1.0, 2.0};
  entities[1].demand = ResourceVector{3.0, 4.0};

  std::stringstream buffer;
  write_entities_csv(entities, buffer);
  const auto parsed = read_entities_csv(buffer);
  ASSERT_EQ(parsed.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed[i].name, entities[i].name);
    EXPECT_TRUE(
        parsed[i].initial_share.approx_equal(entities[i].initial_share, 0));
    EXPECT_TRUE(parsed[i].demand.approx_equal(entities[i].demand, 0));
  }
}

TEST(EntityIo, RejectsMalformedInput) {
  {
    std::stringstream empty;
    EXPECT_THROW(read_entities_csv(empty), DomainError);
  }
  {
    std::stringstream odd("name,s0,s1,d0\nA,1,2,3\n");
    EXPECT_THROW(read_entities_csv(odd), DomainError);
  }
  {
    std::stringstream short_row("name,s0,s1,d0,d1\nA,1,2,3\n");
    EXPECT_THROW(read_entities_csv(short_row), DomainError);
  }
  {
    std::stringstream nan_cell("name,s0,s1,d0,d1\nA,1,x,3,4\n");
    EXPECT_THROW(read_entities_csv(nan_cell), DomainError);
  }
  {
    std::stringstream header_only("name,s0,s1,d0,d1\n");
    EXPECT_THROW(read_entities_csv(header_only), DomainError);
  }
}

TEST(EntityIo, RejectsMoreResourceTypesThanTheLimit) {
  std::stringstream in(
      "name,s0,s1,s2,s3,s4,d0,d1,d2,d3,d4\n"
      "A,1,1,1,1,1,1,1,1,1,1\n");
  try {
    read_entities_csv(in);
    FAIL() << "a five-type CSV was accepted";
  } catch (const DomainError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("entity CSV header"), std::string::npos) << what;
    EXPECT_NE(what.find("limit of 4"), std::string::npos) << what;
  }
}

TEST(EntityIo, FormatResultShowsEveryEntityAndIdleRow) {
  std::stringstream in(
      "name,s0,s1,d0,d1\n"
      "giver,500,500,200,500\n"
      "rider,500,500,900,500\n");
  const auto entities = read_entities_csv(in);
  const AllocationResult result =
      IrtAllocator{}.allocate(ResourceVector{1000.0, 1000.0}, entities);
  const std::string text = format_result(entities, result);
  EXPECT_NE(text.find("giver"), std::string::npos);
  EXPECT_NE(text.find("rider"), std::string::npos);
  EXPECT_NE(text.find("(idle)"), std::string::npos);
  EXPECT_NE(text.find("<300, 0>"), std::string::npos);  // idle CPU surplus
}

/// format_result of one IRT allocation of `csv` over `capacity`.
std::string format_one(const std::string& csv, ResourceVector capacity) {
  std::stringstream in(csv);
  const auto entities = read_entities_csv(in);
  return format_result(entities,
                       IrtAllocator{}.allocate(capacity, entities));
}

// Shares, demands, grants and gains print in the shortest form that
// reads back as the same double, not rounded to whole numbers.
TEST(EntityIo, FormatResultPrintsFractionalValuesExactly) {
  const std::string text = format_one(
      "name,s0,s1,d0,d1\n"
      "a,2.5,1.5,3.25,0.5\n",
      ResourceVector{5.0, 3.0});
  EXPECT_NE(text.find("| <2.5, 1.5> | <3.25, 0.5> | <3.25, 0.5> | -0.25 |"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("<1.75, 2.5>"), std::string::npos) << text;
}

TEST(EntityIo, FormatResultKeepsTinyValues) {
  const std::string text = format_one(
      "name,s0,s1,d0,d1\n"
      "a,1e-12,1e-12,5e-13,1e-12\n",
      ResourceVector{1e-12, 1e-12});
  EXPECT_NE(text.find("| <1e-12, 1e-12> | <5e-13, 1e-12> | <5e-13, 1e-12> | "
                      "-5e-13 |"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("<5e-13, 0>"), std::string::npos) << text;
}

TEST(EntityIo, FormatResultPrintsHugeValuesInShortestForm) {
  const std::string text = format_one(
      "name,s0,s1,d0,d1\n"
      "a,1e12,2e12,3e12,1e12\n",
      ResourceVector{1e12, 2e12});
  EXPECT_NE(text.find("| <1e+12, 2e+12> | <3e+12, 1e+12> | <1e+12, 1e+12> | "
                      "-1e+12 |"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("000000"), std::string::npos) << text;
}

}  // namespace
}  // namespace rrf::alloc
