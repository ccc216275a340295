// Cardinality feedback (see adapt.h for the model).

#include "core/plan/adapt.h"

#include <string>

#include "util/metrics.h"

namespace trial {
namespace plan {
namespace {

// Feedback entries beyond this are evicted arbitrarily; the cache holds
// cardinalities, not results, so eviction only costs re-learning.
constexpr size_t kMaxFeedbackEntries = 4096;

// Largest unfolded expression FeedbackKeyable accepts, in nodes.
constexpr size_t kMaxKeyNodes = 4096;

// Walks `e` as a tree, spending one unit of `budget` per node; false
// once the budget runs out.
bool UnfoldsWithin(const Expr& e, size_t* budget) {
  if (*budget == 0) return false;
  --*budget;
  return (e.left() == nullptr || UnfoldsWithin(*e.left(), budget)) &&
         (e.right() == nullptr || UnfoldsWithin(*e.right(), budget));
}

// Records the counted rows of every executed node of one DP join region
// under its subset key.  A single-bit mask is a region leaf: its subtree
// belongs to the leaf (possibly with a region of its own, keyed by a
// different signature), so the walk stops there.
void RecordRegion(const PlanNode& n, const std::string& region_sig,
                  const TripleStore& store, FeedbackCache& fb) {
  if (n.region_mask == 0) return;
  if (n.runtime.executed && n.runtime.rows_known) {
    fb.Record(store, RegionSubsetKey(region_sig, n.region_mask),
              RowsPerLoop(n.runtime));
  }
  if ((n.region_mask & (n.region_mask - 1)) == 0) return;
  for (const PlanPtr& c : n.children) RecordRegion(*c, region_sig, store, fb);
}

}  // namespace

// ---- FeedbackCache -----------------------------------------------------

FeedbackCache& FeedbackCache::Global() {
  static FeedbackCache* cache = new FeedbackCache();
  return *cache;
}

void FeedbackCache::Record(const TripleStore& store, const std::string& key,
                           double rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() >= kMaxFeedbackEntries &&
      entries_.find(key) == entries_.end()) {
    entries_.erase(entries_.begin());  // arbitrary victim; see kMax comment
  }
  Entry& e = entries_[key];
  e.rows = rows;
  e.epoch = store.Epoch();
  e.store = &store;
}

double FeedbackCache::Lookup(const TripleStore& store,
                             const std::string& key) const {
  bool hit = false;
  double rows = -1.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.store == &store &&
        it->second.epoch == store.Epoch()) {
      hit = true;
      rows = it->second.rows;
    }
  }
  if (MetricsEnabled()) {
    MetricsRegistry::Global()
        .GetCounter(hit ? "feedback.hits" : "feedback.misses")
        ->Increment();
  }
  return rows;
}

void FeedbackCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t FeedbackCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string RegionSubsetKey(const std::string& region_sig, uint32_t mask) {
  return region_sig + "|m=" + std::to_string(mask);
}

bool FeedbackKeyable(const Expr& e) {
  size_t budget = kMaxKeyNodes;
  return UnfoldsWithin(e, &budget);
}

// ---- ExecuteAdaptive ---------------------------------------------------

Result<TripleSet> ExecuteAdaptive(const ExprPtr& e, const TripleStore& store,
                                  const ExecLimits& limits, bool profile,
                                  AdaptiveResult* out, FeedbackCache* fb,
                                  const std::vector<FixpointDef>* fixpoints) {
  if (fb == nullptr) fb = &FeedbackCache::Global();
  PlanningHints hints;
  hints.feedback = fb;
  hints.fixpoints = fixpoints;
  PlanPtr plan = PlanExpr(e, store, hints);
  Result<TripleSet> result = ExecutePlan(*plan, store, limits, profile);
  if (result.ok()) {
    // Counting the root normalizes the result, which every caller is
    // about to read anyway.
    RecordRootRows(*plan, *result);
    if (FeedbackKeyable(*e)) {
      const std::string sig = e->ToString();
      fb->Record(store, sig, static_cast<double>(result->size()));
      RecordRegion(*plan, sig, store, *fb);
    }
  }
  if (out != nullptr) out->plan = std::move(plan);
  return result;
}

}  // namespace plan
}  // namespace trial
