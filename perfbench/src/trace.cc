#include "trace.h"

#include "util/metrics.h"

namespace perfbench {

int Tracer::Begin(const char* name, uint64_t op) {
  if (!on_) return -1;
  const uint64_t now = trial::MonotonicNanos();
  if (origin_ns_ == 0) origin_ns_ = now;
  int index = -1;
  if (spans_.size() < kMaxSpans) {
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back().index;
    s.start_ns = now - origin_ns_;
    index = static_cast<int>(spans_.size());
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{index, name, now});
  return static_cast<int>(stack_.size()) - 1;
}

uint64_t Tracer::End(int h) {
  if (h < 0) return 0;
  const uint64_t now = trial::MonotonicNanos();
  // Spans close in LIFO order (ScopedSpan); `h` is the stack depth.
  const Open open = stack_[static_cast<size_t>(h)];
  stack_.resize(static_cast<size_t>(h));
  const uint64_t dur = now - open.start_ns;
  if (open.index >= 0) spans_[static_cast<size_t>(open.index)].end_ns =
      now - origin_ns_;
  LayerTotal& t = totals_[open.name];
  ++t.calls;
  t.ns += dur;
  return dur;
}

std::string Tracer::CheckNesting() const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      return "span " + std::to_string(i) + " (" + s.name + ") ends before it starts";
    }
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (p.op != s.op || s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return "span " + std::to_string(i) + " (" + s.name +
             ") is not nested in its parent (" + p.name + ")";
    }
  }
  return "";
}

std::string Tracer::ToJson() const {
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n{\"name\": \"";
    out += s.name;
    out += "\", \"op\": " + std::to_string(s.op) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) + "}";
  }
  out += "],\n\"dropped\": " + std::to_string(dropped_) + "}\n";
  return out;
}

RegistryView RegistryView::Capture() {
  RegistryView v;
  trial::MetricsSnapshot snap = trial::MetricsRegistry::Global().Snapshot();
  for (const auto& c : snap.counters) v.counters[c.name] = c.value;
  for (const auto& h : snap.histograms) {
    v.hist_count[h.name] = h.count;
    v.hist_sum[h.name] = h.sum;
  }
  return v;
}

namespace {

std::map<std::string, uint64_t> Diff(const std::map<std::string, uint64_t>& a,
                                     const std::map<std::string, uint64_t>& b) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    out[name] = value - (it == b.end() ? 0 : it->second);
  }
  return out;
}

void Accumulate(std::map<std::string, uint64_t>* into,
                const std::map<std::string, uint64_t>& delta) {
  for (const auto& [name, value] : delta) (*into)[name] += value;
}

uint64_t Get(const std::map<std::string, uint64_t>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

}  // namespace

RegistryView RegistryView::Minus(const RegistryView& before) const {
  RegistryView d;
  d.counters = Diff(counters, before.counters);
  d.hist_count = Diff(hist_count, before.hist_count);
  d.hist_sum = Diff(hist_sum, before.hist_sum);
  return d;
}

void RegistryView::Add(const RegistryView& delta) {
  Accumulate(&counters, delta.counters);
  Accumulate(&hist_count, delta.hist_count);
  Accumulate(&hist_sum, delta.hist_sum);
}

uint64_t RegistryView::Counter(const std::string& name) const {
  return Get(counters, name);
}
uint64_t RegistryView::HistSum(const std::string& name) const {
  return Get(hist_sum, name);
}
uint64_t RegistryView::HistCount(const std::string& name) const {
  return Get(hist_count, name);
}

}  // namespace perfbench
