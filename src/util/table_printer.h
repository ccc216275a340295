// Console table printer used by the benchmark harnesses to emit
// paper-style result tables.

#ifndef TRIAL_UTIL_TABLE_PRINTER_H_
#define TRIAL_UTIL_TABLE_PRINTER_H_

#include <cstdio>
#include <string>
#include <vector>

namespace trial {

/// Collects rows of string cells and prints them with aligned columns.
class TablePrinter {
 public:
  /// `headers` defines the column count.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row.  Rows shorter than the header are padded with "".
  void AddRow(std::vector<std::string> cells);

  /// Prints the table to stdout with a separator under the header.
  void Print() const;

  /// Formats a double with `prec` decimals.
  static std::string Fmt(double v, int prec = 3);
  static std::string Fmt(int64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace trial

#endif  // TRIAL_UTIL_TABLE_PRINTER_H_
