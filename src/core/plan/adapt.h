// Cardinality feedback: a learned cardinality cache and the query
// entry point that feeds it.
//
// The DP join reorderer (reorder.cc) picks good orders only when its
// estimates are right.  The planner prices constant selections from
// exact ranges and the aggregated projections, and equi-joins from the
// top-k frequencies; whatever the statistics still miss, an execution
// observes.  Cardinality feedback remembers those observations, so the
// next plan of the same (sub)expression starts from the true counts:
//
//   FeedbackCache   observed cardinalities keyed by normalized
//                   (sub)expression, persisted across queries of one
//                   process; the planner consults it before statistics.
//
//   ExecuteAdaptive plans a query with the cache, runs the plan once on
//                   the ordinary executor, and records what the root
//                   and every counted join-region subset produced.
//
// Contract: feedback changes join ORDER, never semantics — the result
// is byte-identical to the plain plan's (all join orders produce the
// same normalized TripleSet).  Feedback only moves
// cost estimates, so a stale or aliased cache entry can at worst pick a
// slower order, never a wrong answer.

#ifndef TRIAL_CORE_PLAN_ADAPT_H_
#define TRIAL_CORE_PLAN_ADAPT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/plan/plan.h"

namespace trial {
namespace plan {

// ---- learned cardinality cache -----------------------------------------

/// Observed cardinalities keyed by normalized (sub)expression text, with
/// join-region subsets further qualified by their DP leaf mask (see
/// RegionSubsetKey).  Entries are scoped to one (store address, store
/// epoch) pair: any store mutation invalidates its entries, and an
/// address reused by a different store can only misprice, never corrupt
/// (feedback moves estimates, not semantics).  Thread-safe.
class FeedbackCache {
 public:
  /// The process-wide cache used by default (one engine, many queries).
  static FeedbackCache& Global();

  /// Records that `key` produced `rows` rows against `store` at its
  /// current epoch.  Overwrites an existing entry.
  void Record(const TripleStore& store, const std::string& key, double rows);

  /// The recorded cardinality, or a negative value when absent / stale.
  /// Bumps feedback.hits / feedback.misses when metrics are on.
  double Lookup(const TripleStore& store, const std::string& key) const;

  /// Drops every entry (tests; store teardown is NOT tracked).
  void Clear();

  size_t size() const;

 private:
  struct Entry {
    double rows = 0;
    uint64_t epoch = 0;
    const void* store = nullptr;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

/// Cache key of a join-region DP subset: the region root's normalized
/// expression text plus the subset's leaf bitmask (over the region's
/// flattened left-to-right leaf order).  Subset row counts are
/// schema-invariant — the live variable-class set of a mask is fixed by
/// the region — so the mask alone qualifies the subexpression.
std::string RegionSubsetKey(const std::string& region_sig, uint32_t mask);

/// True when `e` is small enough to key the cache by its text: at most
/// a few thousand nodes once shared subexpressions are unfolded.  An
/// expression that reuses subexpressions (ProgramToTriAL's translation
/// of a predicate used twice) can unfold exponentially; such an
/// expression is planned, run and recorded without its own key.
bool FeedbackKeyable(const Expr& e);

// ---- execution with feedback -------------------------------------------

/// What ExecuteAdaptive did, for EXPLAIN / profiling.
struct AdaptiveResult {
  /// The physical tree that was executed, runtimes filled — render with
  /// Explain / ExplainAnalyze / CollectTrace.  Always set, on failure
  /// too.
  PlanPtr plan;
};

/// Plans `e` consulting `fb` before statistics, executes the plan once
/// through ExecutePlan, and records into `fb` the root's row count
/// (keyed by the expression text) plus, when the root is a DP join
/// region, every executed region subset whose rows were counted (keyed
/// by RegionSubsetKey).  Results are byte-identical to
/// ExecutePlan(PlanExpr(e, store)).  `out` may be
/// null; `fb` null means FeedbackCache::Global().  Metrics are those of
/// ExecutePlan: exec.query_ns times the execution, not the planning.
Result<TripleSet> ExecuteAdaptive(const ExprPtr& e, const TripleStore& store,
                                  const ExecLimits& limits = {},
                                  bool profile = false,
                                  AdaptiveResult* out = nullptr,
                                  FeedbackCache* fb = nullptr);

}  // namespace plan
}  // namespace trial

#endif  // TRIAL_CORE_PLAN_ADAPT_H_
