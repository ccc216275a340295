#include "core/plan/profile.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace trial {
namespace plan {
namespace {

std::atomic<TraceSink*> g_sink{nullptr};

std::string FmtEstRows(double est) {
  char buf[32];
  if (est < 1e7) {
    std::snprintf(buf, sizeof buf, "%.0f", est);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g", est);
  }
  return buf;
}

// Wall time with a unit that keeps 2-3 significant digits readable
// across the ns..s range the operators actually span.
std::string FmtNs(uint64_t ns) {
  char buf[32];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof buf, "%lluns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.2fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000ull) {
    std::snprintf(buf, sizeof buf, "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

void Flatten(const PlanNode& n, int parent, int depth, QueryTrace* out) {
  if (!n.runtime.executed) return;  // an error path never ran this subtree
  TraceSpan span;
  span.parent = parent;
  span.depth = depth;
  span.op = PlanOpName(n.op);
  AppendNodeSummary(n, &span.detail);
  span.start_ns = n.runtime.start_ns;
  span.end_ns = n.runtime.end_ns;
  span.self_ns = n.runtime.self_ns;
  span.rows_known = n.runtime.rows_known;
  span.rows = n.runtime.actual_rows;
  span.est_rows = n.est_rows;
  if (n.runtime.rows_known) {
    span.q_error = QError(n.est_rows,
                          static_cast<double>(n.runtime.actual_rows));
  }
  if (n.runtime.strategy != nullptr) span.strategy = n.runtime.strategy;
  span.rounds = n.runtime.rounds;
  span.probe_rounds = n.runtime.probe_rounds;
  span.hash_rounds = n.runtime.hash_rounds;
  span.peak_rows = n.runtime.peak_rows;
  int self_index = static_cast<int>(out->spans.size());
  out->spans.push_back(std::move(span));
  for (const PlanPtr& c : n.children) {
    Flatten(*c, self_index, depth + 1, out);
  }
}

void JsonEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '\n') {
      out->append("\\n");
      continue;
    }
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

void RenderSpan(const QueryTrace& t, size_t i, int indent, std::string* out) {
  const TraceSpan& s = t.spans[i];
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  char buf[160];
  out->append(pad).append("{\n");
  out->append(pad).append("  \"op\": \"").append(s.op).append("\",\n");
  out->append(pad).append("  \"detail\": \"");
  JsonEscape(s.detail, out);
  out->append("\",\n");
  std::snprintf(buf, sizeof buf,
                "  \"start_ns\": %llu, \"end_ns\": %llu, \"self_ns\": %llu,\n",
                static_cast<unsigned long long>(s.start_ns),
                static_cast<unsigned long long>(s.end_ns),
                static_cast<unsigned long long>(s.self_ns));
  out->append(pad).append(buf);
  if (s.rows_known) {
    std::snprintf(buf, sizeof buf,
                  "  \"rows\": %llu, \"est_rows\": %.6g, \"q_error\": %.4g,\n",
                  static_cast<unsigned long long>(s.rows), s.est_rows,
                  s.q_error);
  } else {
    std::snprintf(buf, sizeof buf,
                  "  \"rows\": null, \"est_rows\": %.6g, \"q_error\": null,\n",
                  s.est_rows);
  }
  out->append(pad).append(buf);
  out->append(pad).append("  \"strategy\": ");
  if (s.strategy.empty()) {
    out->append("null");
  } else {
    out->append("\"").append(s.strategy).append("\"");
  }
  std::snprintf(buf, sizeof buf,
                ", \"rounds\": %llu, \"peak_rows\": %llu,\n",
                static_cast<unsigned long long>(s.rounds),
                static_cast<unsigned long long>(s.peak_rows));
  out->append(buf);
  out->append(pad).append("  \"children\": [");
  bool first = true;
  for (size_t c = i + 1; c < t.spans.size(); ++c) {
    if (t.spans[c].parent != static_cast<int>(i)) continue;
    out->append(first ? "\n" : ",\n");
    RenderSpan(t, c, indent + 2, out);
    first = false;
  }
  if (!first) out->append("\n").append(pad).append("  ");
  out->append("]\n");
  out->append(pad).append("}");
}

}  // namespace

double QError(double est_rows, double actual_rows) {
  // Degenerate inputs must not leak into histograms or thresholds: a
  // NaN estimate (0·∞ folds on pathological plans) means "no
  // information" and reads as a perfect q of 1; ±∞ (compounded
  // U-subtree products) clamps to a huge finite ratio so the returned
  // q-error is always finite and >= 1.
  if (std::isnan(est_rows)) est_rows = 1.0;
  if (std::isnan(actual_rows)) actual_rows = 1.0;
  double e = std::min(std::max(est_rows, 1.0), 1e300);
  double a = std::min(std::max(actual_rows, 1.0), 1e300);
  return std::max(e / a, a / e);
}

QueryTrace CollectTrace(const PlanNode& root, std::string query) {
  QueryTrace trace;
  trace.query = std::move(query);
  Flatten(root, -1, 0, &trace);
  if (!trace.spans.empty()) {
    trace.wall_ns = trace.spans[0].end_ns - trace.spans[0].start_ns;
  }
  return trace;
}

std::string TraceToJson(const QueryTrace& trace) {
  std::string out = "{\n  \"query\": \"";
  JsonEscape(trace.query, &out);
  char buf[96];
  std::snprintf(buf, sizeof buf, "\",\n  \"wall_ns\": %llu,\n  \"root\": ",
                static_cast<unsigned long long>(trace.wall_ns));
  out.append(buf);
  if (trace.spans.empty()) {
    out.append("null");
  } else {
    out.append("\n");
    RenderSpan(trace, 0, 1, &out);
  }
  out.append("\n}\n");
  return out;
}

std::string ExplainAnalyze(const PlanNode& root) {
  std::string out;
  // Recursive lambda over the tree, mirroring Explain()'s layout with
  // the runtime annotations appended per line.
  struct Renderer {
    std::string* out;
    void Render(const PlanNode& n, int depth) {
      out->append(static_cast<size_t>(depth) * 2, ' ');
      AppendNodeSummary(n, out);
      out->append(" est=").append(FmtEstRows(n.est_rows));
      char buf[96];
      if (n.runtime.executed && n.runtime.rows_known) {
        std::snprintf(buf, sizeof buf, " actual=%zu q=%.2f",
                      n.runtime.actual_rows,
                      QError(n.est_rows,
                             static_cast<double>(n.runtime.actual_rows)));
        out->append(buf);
      } else {
        out->append(n.runtime.executed ? " actual=?" : " actual=-");
      }
      if (n.runtime.strategy != nullptr) {
        out->append(" (").append(n.runtime.strategy).append(")");
      }
      if (n.runtime.profiled) {
        out->append(" self=").append(FmtNs(n.runtime.self_ns));
        out->append(" cum=").append(
            FmtNs(n.runtime.end_ns - n.runtime.start_ns));
        std::snprintf(buf, sizeof buf, " peak=%zu", n.runtime.peak_rows);
        out->append(buf);
      }
      if (n.op == PlanOp::kFixpointStar && n.runtime.executed) {
        std::snprintf(buf, sizeof buf, " rounds=%zu (probe=%zu, hash=%zu)",
                      n.runtime.rounds, n.runtime.probe_rounds,
                      n.runtime.hash_rounds);
        out->append(buf);
      }
      if (n.op == PlanOp::kDijkstraScan && n.runtime.executed) {
        if (n.runtime.sp_reached) {
          std::snprintf(buf, sizeof buf, " dist=%lld settled=%zu",
                        static_cast<long long>(n.runtime.sp_distance),
                        n.runtime.sp_settled);
          out->append(buf);
        } else {
          out->append(" unreachable");
        }
      }
      out->append("\n");
      for (const PlanPtr& c : n.children) Render(*c, depth + 1);
    }
  };
  Renderer{&out}.Render(root, 0);
  return out;
}

TraceSink* SetTraceSink(TraceSink* sink) {
  return g_sink.exchange(sink, std::memory_order_acq_rel);
}

void EmitTrace(const QueryTrace& trace) {
  TraceSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink != nullptr) sink->Consume(trace);
}

}  // namespace plan
}  // namespace trial
