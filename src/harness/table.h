// Plain-text table printer for bench output (paper tables/figures as rows).

#ifndef DEMETER_SRC_HARNESS_TABLE_H_
#define DEMETER_SRC_HARNESS_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace demeter {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Prints to stdout with column alignment and a header rule.
  void Print() const;
  // The same rendering as Print(), returned as a string (for result sinks
  // that write tables to files).
  std::string ToString() const;

  static std::string Fmt(double value, int precision = 2);
  static std::string Fmt(uint64_t value);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_HARNESS_TABLE_H_
