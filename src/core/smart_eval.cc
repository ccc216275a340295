// Optimized QueryComputation engine — a thin shim over the physical
// plan layer (src/core/plan/).
//
// The execution machinery that used to live here — the probe-vs-hash
// cost rule, index access-path selection, semi-naive fixpoints and the
// Proposition 5 reachability dispatch — moved into the shared plan
// subsystem: the planner (plan/planner.cc) lowers the expression into
// an operator tree with cardinality estimates, and the executor
// (plan/plan_exec.cc) runs it, re-checking every cost decision against
// actual cardinalities so results and performance match the historical
// inline engine at every thread count.  Callers that want the plan
// itself (EXPLAIN, tests) use plan::PlanExpr / plan::ExecutePlan
// directly; this evaluator exists for the uniform Evaluator interface.
//
// The evaluator keeps a small LRU plan cache keyed by the expression's
// normalized text plus the store's identity and mutation epoch — the
// building block the query-server item needs: repeated queries (and
// syntactically equal ones arriving as distinct ExprPtr trees) skip the
// lowering, and any store mutation bumps the epoch so stale plans miss
// instead of serving outdated estimates.  plan_cache.hits/misses record
// the effectiveness when metrics are on.
//
// With opts.adaptive set, a cache miss routes through
// plan::ExecuteAdaptive: the plan is built with the learned-cardinality
// FeedbackCache and what it observes is recorded there, so the next
// plan of any expression it covered starts from the true counts.

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/eval.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "util/metrics.h"

namespace trial {
namespace {

// Plans are a few hundred bytes; 16 entries covers a working set of
// dashboard-style repeated queries without measurable memory.
constexpr size_t kPlanCacheCapacity = 16;

class SmartEvaluator final : public Evaluator {
 public:
  explicit SmartEvaluator(EvalOptions opts) : opts_(opts) {}

  Result<TripleSet> Eval(const ExprPtr& e, const TripleStore& store) override {
    TRIAL_RETURN_IF_ERROR(ValidateExpr(e));
    // Cached plans are keyed by (normalized expression, store identity,
    // store epoch).  Safe under mutation twice over: the epoch key
    // invalidates on any store change, and even a hypothetically stale
    // plan stays semantically correct — the executor re-derives every
    // cost decision from actual cardinalities and resolves relation
    // names at execution time; only estimate annotations could go
    // stale.
    const std::string key = e->ToString();
    const uint64_t epoch = store.Epoch();
    plan::PlanNode* plan = CacheLookup(key, &store, epoch);
    if (MetricsEnabled()) {
      MetricsRegistry::Global()
          .GetCounter(plan != nullptr ? "plan_cache.hits"
                                      : "plan_cache.misses")
          ->Increment();
    }
    if (plan != nullptr) {
      return plan::ExecutePlan(*plan, store, opts_);
    }
    if (opts_.adaptive) {
      plan::AdaptiveResult ar;
      Result<TripleSet> result =
          plan::ExecuteAdaptive(e, store, opts_, /*profile=*/false, &ar);
      // Note the epoch as of before execution — execution itself never
      // mutates the store.
      if (result.ok() && ar.plan != nullptr) {
        CacheInsert(key, &store, epoch, std::move(ar.plan));
      }
      return result;
    }
    plan::PlanPtr fresh = plan::PlanExpr(e, store);
    Result<TripleSet> result = plan::ExecutePlan(*fresh, store, opts_);
    CacheInsert(key, &store, epoch, std::move(fresh));
    return result;
  }

  const char* name() const override { return "smart"; }

 private:
  struct CacheEntry {
    std::string key;
    const TripleStore* store = nullptr;
    uint64_t epoch = 0;
    plan::PlanPtr plan;
  };

  // Linear scan + move-to-front: at capacity 16 this beats any map.
  plan::PlanNode* CacheLookup(const std::string& key, const TripleStore* store,
                              uint64_t epoch) {
    for (size_t i = 0; i < cache_.size(); ++i) {
      CacheEntry& c = cache_[i];
      if (c.store != store || c.key != key) continue;
      if (c.epoch != epoch) {
        // Same query, mutated store: the entry can never hit again
        // (epochs are monotonic), drop it.
        cache_.erase(cache_.begin() + static_cast<ptrdiff_t>(i));
        return nullptr;
      }
      if (i != 0) std::rotate(cache_.begin(), cache_.begin() + i,
                              cache_.begin() + i + 1);
      return cache_.front().plan.get();
    }
    return nullptr;
  }

  void CacheInsert(const std::string& key, const TripleStore* store,
                   uint64_t epoch, plan::PlanPtr plan) {
    if (cache_.size() >= kPlanCacheCapacity) cache_.pop_back();
    CacheEntry e;
    e.key = key;
    e.store = store;
    e.epoch = epoch;
    e.plan = std::move(plan);
    cache_.insert(cache_.begin(), std::move(e));
  }

  EvalOptions opts_;
  std::vector<CacheEntry> cache_;  // front = most recently used
};

}  // namespace

std::unique_ptr<Evaluator> MakeSmartEvaluator(EvalOptions opts) {
  return std::make_unique<SmartEvaluator>(opts);
}

}  // namespace trial
