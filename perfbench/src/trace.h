// Span recording for the benchmark's traced run, and registry deltas.
//
// Spans are recorded from the benchmark's own code, around its calls
// into each layer's public functions: name, start, end, parent span and
// op id.  They are kept in memory and written out once, at exit.  When
// the recorder is off, Begin/End read no clock and record nothing.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string
  int parent = -1;        ///< index into the span list, -1 for a root
  uint64_t op = 0;        ///< op id; 0 for set-up and checks
  uint64_t start_ns = 0;  ///< steady clock, relative to recorder start
  uint64_t end_ns = 0;
};

/// Total time and call count of one span name.
struct LayerTotal {
  uint64_t calls = 0;
  uint64_t ns = 0;
};

class Tracer {
 public:
  /// Spans beyond this many are counted but not kept.
  static constexpr size_t kMaxSpans = 1'000'000;

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Opens a span under the innermost open one; returns its handle
  /// (-1 when off).
  int Begin(const char* name, uint64_t op);
  /// Closes span `h` and returns its duration in ns (0 when off).
  uint64_t End(int h);

  /// Per-name totals of every span closed so far.
  const std::map<std::string, LayerTotal>& totals() const { return totals_; }
  size_t dropped() const { return dropped_; }

  /// Empty when every kept span lies inside its parent and shares its
  /// parent's op id; otherwise describes the first violation.
  std::string CheckNesting() const;

  /// {"spans": [{"name", "op", "parent", "start_ns", "end_ns"}, ...],
  ///  "dropped": n}
  std::string ToJson() const;

 private:
  struct Open {
    int index;        ///< kept span index, or -1 when dropped
    const char* name;
    uint64_t start_ns;
  };
  bool on_ = false;
  uint64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<std::string, LayerTotal> totals_;
  size_t dropped_ = 0;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint64_t op)
      : t_(t), h_(t->Begin(name, op)) {}
  ~ScopedSpan() { t_->End(h_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int h_;
};

/// Counter values and histogram (count, sum) pairs of the engine's
/// MetricsRegistry at one instant, by name; Minus gives the activity
/// between two captures.
struct RegistryView {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> hist_count;
  std::map<std::string, uint64_t> hist_sum;

  static RegistryView Capture();
  RegistryView Minus(const RegistryView& before) const;
  void Add(const RegistryView& delta);

  uint64_t Counter(const std::string& name) const;
  uint64_t HistSum(const std::string& name) const;
  uint64_t HistCount(const std::string& name) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
