// Plain-text table and CSV rendering for benchmark/report output.
//
// Every bench binary reproduces one table or figure of the paper; TextTable
// prints the rows in an aligned, human-diffable layout, and write_csv emits
// the same data for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rrf {

class TextTable {
 public:
  /// Optional title printed above the table.
  explicit TextTable(std::string title = "") : title_(std::move(title)) {}

  TextTable& header(std::vector<std::string> cells);
  TextTable& row(std::vector<std::string> cells);

  /// Convenience: format doubles with fixed precision.
  static std::string num(double v, int precision = 2);
  /// The shortest form that reads back as the same double
  /// (std::to_chars): 2.5, -0.25, 1e-12, 1e+12.
  static std::string exact(double v);
  /// Format as a percentage ("45.0%").
  static std::string pct(double fraction, int precision = 1);

  void print(std::ostream& os) const;
  std::string to_string() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Write rows (first row = header) to a CSV file; throws DomainError on I/O
/// failure.  Cells containing commas/quotes are quoted.
void write_csv(const std::string& path,
               const std::vector<std::vector<std::string>>& rows);
/// The same rows to a stream the caller opened and checks.
void write_csv(std::ostream& out,
               const std::vector<std::vector<std::string>>& rows);

}  // namespace rrf
