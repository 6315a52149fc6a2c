#include "alloc/entity_io.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace rrf::alloc {

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

}  // namespace

std::vector<AllocationEntity> read_entities_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw DomainError("entity CSV is empty");
  }
  const std::size_t columns = split_csv_line(line).size();
  if (columns < 3 || (columns - 1) % 2 != 0) {
    throw DomainError(
        "entity CSV header must be name + p share + p demand columns");
  }
  const std::size_t p = (columns - 1) / 2;
  if (p > ResourceVector::kInlineCapacity) {
    throw DomainError("entity CSV header: " + std::to_string(p) +
                      " resource types exceed the limit of " +
                      std::to_string(ResourceVector::kInlineCapacity));
  }

  std::vector<AllocationEntity> entities;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> cells = split_csv_line(line);
    if (cells.size() != columns) {
      throw DomainError("entity CSV line " + std::to_string(line_no) +
                        ": expected " + std::to_string(columns) +
                        " columns, got " + std::to_string(cells.size()));
    }
    AllocationEntity entity;
    entity.name = cells[0];
    entity.initial_share = ResourceVector(p);
    entity.demand = ResourceVector(p);
    for (std::size_t k = 0; k < 2 * p; ++k) {
      double value = 0.0;
      try {
        value = std::stod(cells[k + 1]);
      } catch (const std::exception&) {
        throw DomainError("entity CSV line " + std::to_string(line_no) +
                          ": not a number: " + cells[k + 1]);
      }
      if (!std::isfinite(value)) {
        throw DomainError("entity CSV line " + std::to_string(line_no) +
                          ": not a finite number: " + cells[k + 1]);
      }
      if (k < p) {
        entity.initial_share[k] = value;
      } else {
        entity.demand[k - p] = value;
      }
    }
    entities.push_back(std::move(entity));
  }
  if (entities.empty()) {
    throw DomainError("entity CSV has a header but no rows");
  }
  return entities;
}

void write_entities_csv(std::span<const AllocationEntity> entities,
                        std::ostream& out) {
  RRF_REQUIRE(!entities.empty(), "no entities to write");
  const std::size_t p = entities.front().initial_share.size();
  out.precision(17);
  out << "name";
  for (std::size_t k = 0; k < p; ++k) out << ",share_" << k;
  for (std::size_t k = 0; k < p; ++k) out << ",demand_" << k;
  out << '\n';
  for (const auto& entity : entities) {
    out << entity.name;
    for (std::size_t k = 0; k < p; ++k) out << ',' << entity.initial_share[k];
    for (std::size_t k = 0; k < p; ++k) out << ',' << entity.demand[k];
    out << '\n';
  }
}

std::string format_result(std::span<const AllocationEntity> entities,
                          const AllocationResult& result) {
  RRF_REQUIRE(entities.size() == result.allocations.size(),
              "entity/result size mismatch");
  TextTable table;
  table.header({"entity", "shares", "demand", "allocation", "gain"});
  for (std::size_t i = 0; i < entities.size(); ++i) {
    table.row({entities[i].name.empty() ? "#" + std::to_string(i)
                                        : entities[i].name,
               entities[i].initial_share.to_exact_string(),
               entities[i].demand.to_exact_string(),
               result.allocations[i].to_exact_string(),
               TextTable::exact(
                   (result.allocations[i] - entities[i].initial_share)
                       .sum())});
  }
  table.row({"(idle)", "", "", result.unallocated.to_exact_string(), ""});
  return table.to_string();
}

}  // namespace rrf::alloc
