// Minimal fixed-column text table used by the `ulba_cli` scenarios and the
// claims suite to print paper-style result rows (Figure 4a bars, Figure 5
// series, ...).
#pragma once

#include <string>
#include <vector>

namespace ulba::support {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a data row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Render with column-aligned padding, a header rule, and `indent` leading
  /// spaces on every line.
  [[nodiscard]] std::string render(std::size_t indent = 0) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const noexcept {
    return headers_.size();
  }

  /// Format helpers so call sites stay tidy.
  static std::string num(double v, int precision = 3);
  static std::string pct(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ulba::support
