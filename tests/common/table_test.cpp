#include "common/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace rrf {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t("demo");
  t.header({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(1.0, 0), "1");
  EXPECT_EQ(TextTable::exact(-0.25), "-0.25");
  EXPECT_EQ(TextTable::exact(1e-12), "1e-12");
  EXPECT_EQ(TextTable::exact(2e12), "2e+12");
  EXPECT_EQ(TextTable::exact(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(TextTable::pct(0.4521), "45.2%");
}

TEST(Csv, RoundTripWithEscapes) {
  const std::string path = ::testing::TempDir() + "/rrf_table_test.csv";
  write_csv(path, {{"a", "b,c", "d\"e"}, {"1", "2", "3"}});
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), "a,\"b,c\",\"d\"\"e\"\n1,2,3\n");
  std::remove(path.c_str());
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(write_csv("/nonexistent-dir/x.csv", {{"a"}}), DomainError);
}

}  // namespace
}  // namespace rrf
