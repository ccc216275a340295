// Per-query, per-operator execution profiling over the shared plan
// executor — the observability layer's query-side half.
//
// ExecutePlan(root, store, limits, /*profile=*/true) timestamps every
// operator against one steady-clock origin and fills PlanRuntime's
// profiling fields (start/end/self nanoseconds, actual rows, peak
// intermediate size) next to the fields the unprofiled path already
// recorded (strategy taken, fixpoint round split).  This header turns
// a profiled tree into the three consumable shapes:
//
//   ExplainAnalyze(root)   an EXPLAIN ANALYZE-style annotated tree:
//                          each line adds self/cumulative wall time,
//                          actual rows, estimate q-error and strategy
//                          to the stable Explain() operator summary.
//
//   CollectTrace(root)     a structured span trace: one span per
//                          executed operator, parent-child nesting
//                          preserved, timestamps relative to query
//                          start.  Spans of sequential siblings never
//                          overlap (operators execute their children
//                          in order), so start/end pairs are monotone
//                          along any root-to-leaf path and across
//                          sibling order.  The exception is a
//                          fixpoint's step subtree, which runs once
//                          per round: its spans sum the rounds (rows,
//                          cum_ns, self_ns; `loops` counts them) and
//                          reach from the first round's start to the
//                          last one's end, so siblings inside it
//                          interleave.  TraceToJson renders the nested
//                          JSON exported by `trial_store --analyze
//                          --trace=PATH`.
//
//   TraceSink              the per-query consumption API: the future
//                          trial_serve stats endpoint subscribes here —
//                          per-operator estimate-vs-actual q-error is
//                          the signal an estimator regression shows in.
//
// Attribution of lazy storage work: a set builds an order it lacks on
// first read (TripleBody::Permutation; storage.perm_builds counts the
// in-memory sorts), so the sort lands in the self time of the operator
// that first reads that order, not the one that made the rows.  A
// p-pinned SelectFilter, for one, is born in OSP order; a consumer
// reading it in SPO (a column-0 merge, a union, a difference) pays
// that sort in its own span.  An operator's staged output is still
// normalized inside its own span.
//
// Q-error convention: QError(est, actual) = max(est/actual, actual/est)
// with both sides clamped to >= 1 first, so empty results and zero
// estimates stay finite.  For the positive cardinalities the planner
// tests assert on (PlannerEstimates suite), this is exactly the ratio
// those tests compute.

#ifndef TRIAL_CORE_PLAN_PROFILE_H_
#define TRIAL_CORE_PLAN_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan/plan.h"

namespace trial {
namespace plan {

/// max(est/actual, actual/est), both clamped to >= 1 first.  1.0 is a
/// perfect estimate; the value is always finite and >= 1.
double QError(double est_rows, double actual_rows);

/// One executed operator, flattened in preorder.  `parent` indexes
/// into QueryTrace::spans (-1 for the root); children of one parent
/// appear in execution order.
struct TraceSpan {
  int parent = -1;
  int depth = 0;
  std::string op;       ///< PlanOpName
  std::string detail;   ///< the Explain operator summary (spec, via=)
  uint64_t start_ns = 0;  ///< relative to query start; the first loop's
  uint64_t end_ns = 0;    ///< the last loop's end
  uint64_t cum_ns = 0;    ///< time inside the operator, summed over loops
  uint64_t self_ns = 0;   ///< cum_ns minus the children's cum_ns
  uint64_t loops = 0;     ///< executions (a fixpoint step: one per round)
  bool rows_known = false;
  uint64_t rows = 0;      ///< summed over loops
  double est_rows = 0;
  double q_error = 0;   ///< QError(est, rows per loop); 0 when unknown
  std::string strategy;  ///< empty when the operator has no choice
  uint64_t rounds = 0;
  uint64_t probe_rounds = 0;
  uint64_t hash_rounds = 0;
  uint64_t peak_rows = 0;
};

/// A complete per-query trace record.
struct QueryTrace {
  std::string query;     ///< expression text (caller-provided)
  uint64_t wall_ns = 0;  ///< root span cumulative time
  std::vector<TraceSpan> spans;  ///< preorder; spans[0] is the root
};

/// Flattens a profiled, executed tree into a trace.  Nodes that never
/// executed (error paths) are skipped along with their subtrees.
QueryTrace CollectTrace(const PlanNode& root, std::string query = "");

/// The nested-span JSON export:
///   {"query": "...", "wall_ns": 123456,
///    "root": {"op": "MergeJoin", "detail": "...", "start_ns": 0,
///             "end_ns": ..., "cum_ns": ..., "self_ns": ...,
///             "loops": 1, "rows": ...,
///             "est_rows": ..., "q_error": ..., "strategy": "merge",
///             "children": [{...}, ...]}}
/// Span nesting mirrors the operator tree; timestamps are nanoseconds
/// from query start and each child's [start, end] lies inside its
/// parent's, siblings in order without overlap unless they loop.
std::string TraceToJson(const QueryTrace& trace);

/// The EXPLAIN ANALYZE renderer: the stable Explain() tree, each line
/// annotated with actual rows, q-error, strategy, self and cumulative
/// wall time, and the operator's peak intermediate size (plus loops=N
/// on a fixpoint step's nodes, whose figures sum the N rounds):
///
///   MergeJoin [1,2,3'; 3=1'] via=OSP/SPO est=1200 actual=11873 q=9.89
///       (merge) self=1.23ms cum=4.56ms peak=11873
///     IndexScan E est=50000 actual=50000 q=1.00 self=0.01ms cum=0.01ms
///
/// Requires a tree executed with profile=true; unprofiled nodes render
/// with Explain()'s fields only.
std::string ExplainAnalyze(const PlanNode& root);

/// Per-query trace consumption.  Implementations must be thread-safe:
/// a server evaluates queries concurrently and every one reports here.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Consume(const QueryTrace& trace) = 0;
};

/// Installs the process-wide sink (not owned; null uninstalls).  The
/// previous sink is returned so callers can chain or restore.
TraceSink* SetTraceSink(TraceSink* sink);

/// Hands `trace` to the installed sink; no-op when none is installed.
/// The CLIs call this after every --analyze query, so a linked-in
/// consumer (trial_serve, tests) sees every record without touching
/// caller code.
void EmitTrace(const QueryTrace& trace);

}  // namespace plan
}  // namespace trial

#endif  // TRIAL_CORE_PLAN_PROFILE_H_
