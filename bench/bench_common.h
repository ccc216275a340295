// Shared helpers for the benchmark harnesses: timing loops, paper-style
// reporting, and the one row recorder every bench writes its results
// through.
//
// Every bench binary prints (a) tables of measurements sweeping the
// input size and (b) fitted growth exponents time ~ c·x^k, which is
// what the paper's complexity claims (Theorem 3, Propositions 4/5,
// Corollary 1) predict.  When TRIAL_BENCH_JSON names a file, Finish()
// writes every table there in one schema:
//
//   {"benchmark": <binary>, "description": <text>, "host_cores": <n>,
//    "tables": {"<table>": [{"<column>": <number|string|null>, ...}]}}
//
// so each committed BENCH_<name>.json baseline is regenerated by
// `TRIAL_BENCH_JSON=BENCH_<name>.json ./build/bench/bench_<name>`.

#ifndef TRIAL_BENCH_BENCH_COMMON_H_
#define TRIAL_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/fit.h"
#include "util/parallel.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace trial {
namespace bench {

/// True when the TRIAL_BENCH_SMOKE environment variable is set (CI):
/// sweeps clamp to their smallest sizes and timing loops run a single
/// repetition, so every bench binary executes in seconds and bench code
/// cannot rot unexercised.
inline bool SmokeMode() {
  static const bool smoke = std::getenv("TRIAL_BENCH_SMOKE") != nullptr;
  return smoke;
}

/// A bench's input-size sweep: the full list normally, only the first
/// two sizes (enough for a degenerate fit) in smoke mode.
inline std::vector<size_t> Sweep(std::initializer_list<size_t> sizes) {
  std::vector<size_t> out(sizes);
  if (SmokeMode() && out.size() > 2) out.resize(2);
  return out;
}

/// Runs `fn` once (workloads here are > milliseconds; no repetition
/// needed for stable ordering conclusions) and returns seconds.
inline double TimeOnce(const std::function<void()>& fn) {
  Timer t;
  fn();
  return t.Seconds();
}

/// Runs `fn` enough times to accumulate ~20ms (one repetition in smoke
/// mode) and returns per-run secs.  `setup`, when given, runs before
/// each repetition outside the timed region.
inline double TimeStable(const std::function<void()>& fn,
                         const std::function<void()>& setup = nullptr) {
  int runs = 0;
  double elapsed = 0;
  do {
    if (setup) setup();
    Timer t;
    fn();
    elapsed += t.Seconds();
    ++runs;
  } while (!SmokeMode() && elapsed < 0.02 && runs < 1000);
  return elapsed / runs;
}

/// Best of three TimeStable runs (one in smoke mode): the minimum is
/// the noise-robust statistic on a shared host, where one descheduled
/// run can inflate a cell by 50%.
inline double TimeBest(const std::function<void()>& fn,
                       const std::function<void()>& setup = nullptr) {
  double best = TimeStable(fn, setup);
  for (int i = 0; i < (SmokeMode() ? 0 : 2); ++i) {
    best = std::min(best, TimeStable(fn, setup));
  }
  return best;
}

/// Exits 1 with `what` on stderr unless `ok`: a row that would measure
/// the wrong plan or a wrong answer fails the run instead of recording.
inline void Require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FATAL: %s\n", what);
  std::exit(1);
}

/// Prints the fitted exponent line for a series.
inline void ReportFit(const std::string& label, const std::vector<double>& x,
                      const std::vector<double>& t) {
  PowerFit fit = FitPowerLaw(x, t);
  std::printf("  fit: %-28s time ~ x^%.2f   (r2=%.3f)\n", label.c_str(),
              fit.exponent, fit.r2);
}

inline void Banner(const char* title, const char* claim) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper claim: %s\n\n", claim);
}

/// One recorded value: an integer count, a measurement, a string, or
/// null for a skipped cell ("-" in the printed table).
class Cell {
 public:
  Cell() = default;
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Cell(T v) : kind_(kInt), int_(static_cast<int64_t>(v)) {}
  /// `prec` is the number of decimals printed; the JSON keeps six
  /// significant digits (all integer digits from 10^6 up).
  Cell(double v, int prec = 3) : kind_(kReal), real_(v), prec_(prec) {}
  Cell(std::string v) : kind_(kText), text_(std::move(v)) {}
  Cell(const char* v) : Cell(std::string(v)) {}

  std::string Text() const {
    switch (kind_) {
      case kNull: return "-";
      case kInt: return TablePrinter::Fmt(int_);
      case kReal: return TablePrinter::Fmt(real_, prec_);
      case kText: return text_;
    }
    return "";
  }

  std::string Json() const {
    char buf[32];
    switch (kind_) {
      case kNull: return "null";
      case kInt: return std::to_string(int_);
      case kReal:
        if (!std::isfinite(real_)) return "null";
        std::snprintf(buf, sizeof buf,
                      std::fabs(real_) < 1e6 ? "%.6g" : "%.0f", real_);
        return buf;
      case kText: return Quote(text_);
    }
    return "null";
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  enum Kind { kNull, kInt, kReal, kText } kind_ = kNull;
  int64_t int_ = 0;
  double real_ = 0;
  int prec_ = 3;
  std::string text_;
};

/// A named result table: its rows print aligned and go to the JSON
/// baseline under "tables".<name>.
class Table {
 public:
  Table(std::string name, std::vector<std::string> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  /// One cell per column, in column order.
  void AddRow(std::vector<Cell> row) {
    Require(row.size() == columns_.size(), "row width differs from columns");
    rows_.push_back(std::move(row));
  }

  void Print() const {
    TablePrinter printer(columns_);
    for (const auto& row : rows_) {
      std::vector<std::string> text;
      for (const Cell& c : row) text.push_back(c.Text());
      printer.AddRow(std::move(text));
    }
    printer.Print();
  }

  void WriteJson(std::FILE* f) const {
    std::fprintf(f, "    %s: [", Cell::Quote(name_).c_str());
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n      {", r == 0 ? "" : ",");
      for (size_t c = 0; c < columns_.size(); ++c) {
        std::fprintf(f, "%s%s: %s", c == 0 ? "" : ", ",
                     Cell::Quote(columns_[c]).c_str(),
                     rows_[r][c].Json().c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n    ]");
  }

 private:
  std::string name_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// Every table the bench declared, in declaration order.
inline std::deque<Table>& Tables() {
  static std::deque<Table> tables;
  return tables;
}

/// Declares a result table; the reference stays valid until exit.
inline Table& AddTable(std::string name, std::vector<std::string> columns) {
  return Tables().emplace_back(std::move(name), std::move(columns));
}

/// Ends a bench's main: writes every table to the file TRIAL_BENCH_JSON
/// names, when set.  Returns the exit status: 1 when the file cannot
/// be written.
inline int Finish(const char* benchmark, const char* description) {
  const char* path = std::getenv("TRIAL_BENCH_JSON");
  if (path == nullptr) return 0;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": %s,\n  \"description\": %s,\n"
               "  \"host_cores\": %zu,\n  \"tables\": {\n",
               Cell::Quote(benchmark).c_str(),
               Cell::Quote(description).c_str(), HardwareThreads());
  for (size_t i = 0; i < Tables().size(); ++i) {
    if (i > 0) std::fprintf(f, ",\n");
    Tables()[i].WriteJson(f);
  }
  std::fprintf(f, "\n  }\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("\nwrote %s\n", path);
  return 0;
}

}  // namespace bench
}  // namespace trial

#endif  // TRIAL_BENCH_BENCH_COMMON_H_
