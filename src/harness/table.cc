#include "src/harness/table.h"

#include <cstdio>

#include "src/base/logging.h"

namespace demeter {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  DEMETER_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::Fmt(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
  return buf;
}

void TablePrinter::Print() const { std::fputs(ToString().c_str(), stdout); }

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out.append(widths[c] - row[c].size(), ' ');  // %-*s pads every cell.
      out += c + 1 == row.size() ? "\n" : "  ";
    }
  };
  append_row(headers_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  out.append(total >= 2 ? total - 2 : 0, '-');
  out += '\n';
  for (const auto& row : rows_) {
    append_row(row);
  }
  return out;
}

}  // namespace demeter
