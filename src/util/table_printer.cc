#include "util/table_printer.h"

#include <algorithm>
#include <cstdio>

namespace trial {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s%s", static_cast<int>(width[c]), row[c].c_str(),
                  c + 1 == row.size() ? "\n" : "  ");
    }
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  std::string sep(total > 2 ? total - 2 : 0, '-');
  std::printf("%s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::Fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string TablePrinter::Fmt(int64_t v) { return std::to_string(v); }

}  // namespace trial
