#include "util/csv.hpp"

#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace spacecdn {

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), arity_(header.size()) {
  SPACECDN_EXPECT(!header.empty(), "CSV header must not be empty");
  write_cells(header);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  SPACECDN_EXPECT(cells.size() == arity_, "CSV row arity must match header");
  write_cells(cells);
  ++rows_;
}

void CsvWriter::row_numeric(const std::vector<double>& cells) {
  std::vector<std::string> formatted;
  formatted.reserve(cells.size());
  for (double v : cells) formatted.push_back(format_number(v));
  row(formatted);
}

void CsvWriter::row_labeled(std::string_view label, const std::vector<double>& cells) {
  std::vector<std::string> formatted;
  formatted.reserve(cells.size() + 1);
  formatted.emplace_back(label);
  for (double v : cells) formatted.push_back(format_number(v));
  row(formatted);
}

std::string CsvWriter::escape(std::string_view cell) {
  const bool needs_quoting =
      cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string{cell};
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string CsvWriter::format_number(double v) {
  if (std::isnan(v)) return "nan";
  char buf[64];
  // %.6g keeps integers exact up to 1e6 and trims trailing zeros.
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  bool first = true;
  for (const auto& cell : cells) {
    if (!first) out_ << ',';
    out_ << escape(cell);
    first = false;
  }
  out_ << '\n';
}

}  // namespace spacecdn
