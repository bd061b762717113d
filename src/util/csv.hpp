// Minimal RFC-4180-style CSV writer used by benches and examples to dump
// series that can be re-plotted (the paper's figures are regenerated from
// these files plus the console tables).
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace spacecdn {

/// Streams CSV rows to an std::ostream it does not own.
///
/// Values containing commas, quotes, or newlines are quoted and escaped.
/// Every row must have the same arity as the header; this is checked.
class CsvWriter {
 public:
  /// @param out  destination stream; must outlive the writer.
  /// @param header  column names, written immediately.
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  /// Writes one row of preformatted cells.
  void row(const std::vector<std::string>& cells);

  /// Convenience: formats each numeric cell with up to 6 significant digits.
  void row_numeric(const std::vector<double>& cells);

  /// Mixed row: first cell a label, rest numeric.
  void row_labeled(std::string_view label, const std::vector<double>& cells);

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

  /// Escapes one cell per RFC 4180.
  [[nodiscard]] static std::string escape(std::string_view cell);

  /// Formats a double compactly ("12.5", "0.003", "1e+09").
  [[nodiscard]] static std::string format_number(double v);

 private:
  void write_cells(const std::vector<std::string>& cells);

  std::ostream& out_;
  std::size_t arity_;
  std::size_t rows_ = 0;
};

}  // namespace spacecdn
