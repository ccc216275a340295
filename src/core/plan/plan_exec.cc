// The shared plan executor: runs a physical operator tree against a
// store.  Every kernel is a serial loop.
//
// This is the former SmartEvaluator execution logic (hash/probe joins,
// semi-naive fixpoints, reach-index walks), lifted out of
// smart_eval.cc so that every consumer — the smart engine shim, the
// CLIs' EXPLAIN paths and the tests — runs the same code.  Results are
// byte-identical to the pre-plan evaluator: the probe-vs-hash and
// per-round decisions are re-made here from *actual* cardinalities with
// exactly the historical rules; the planner's predictions feed
// Explain() and the anti-probe rule, whose right side never runs.
//
// Each node's PlanRuntime is filled as it executes: actual output rows,
// the strategy really taken, and fixpoint round counts.

#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "core/eval.h"
#include "core/fragment.h"
#include "core/plan/plan.h"
#include "core/reach/dijkstra.h"
#include "core/reach/reach_index.h"
#include "util/interner.h"
#include "util/metrics.h"

namespace trial {
namespace plan {
namespace {

using TripleHashSet = std::unordered_set<Triple, TripleHash>;

// The hash side of a join: every passing row's key hash and triple in
// one flat array, bucketed by a counting sort on the hash, with one
// offsets array and no per-key vectors.
class HashIndex {
 public:
  // Two passes over `rows` in an order it already has, count then
  // fill; `pass` filters rows and `hash` keys them (both called twice
  // per row, nothing is staged).
  template <typename Pass, typename Hash>
  void Build(const TripleSet& set, const Pass& pass, const Hash& hash) {
    const TripleRange rows = set.Scan(set.ReadyOrder());
    int bits = 1;
    while (bits < 63 && (size_t{1} << bits) < rows.size()) ++bits;
    shift_ = 64 - bits;
    // offsets_[b] counts bucket b, then holds its end; filling
    // backwards leaves it at the bucket's start.
    offsets_.assign((size_t{1} << bits) + 1, 0);
    for (const Triple& t : rows) {
      if (pass(t)) ++offsets_[Bucket(hash(t))];
    }
    size_t end = 0;
    for (size_t& o : offsets_) o = end += o;
    entries_.resize(end);
    for (const Triple& t : rows) {
      if (!pass(t)) continue;
      const uint64_t h = hash(t);
      entries_[--offsets_[Bucket(h)]] = {h, t};
    }
  }

  bool built() const { return !offsets_.empty(); }

  // Calls fn(triple) for every row stored under key hash `h`.
  template <typename Fn>
  void ForEach(uint64_t h, const Fn& fn) const {
    const size_t b = Bucket(h);
    for (size_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
      if (entries_[i].hash == h) fn(entries_[i].triple);
    }
  }

 private:
  struct Entry {
    uint64_t hash = 0;
    Triple triple;
  };
  // Fibonacci hashing: the top bits of a multiplicative mix, so keys
  // that differ only in low bits still spread.
  size_t Bucket(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  int shift_ = 63;
  std::vector<size_t> offsets_;
  std::vector<Entry> entries_;
};

// A running FixpointStar: its round state and its step's hash tables.
struct Fixpoint {
  TripleSet delta;    ///< the rows the last round added
  TripleHashSet seen;  ///< every row so far
  /// Shared results kept before the first round (the seed's and the
  /// step's inputs'), which no round changes.
  std::unordered_set<int> outer_shares;
  std::unordered_map<const PlanNode*, HashIndex> hashes;  ///< by join
  size_t hash_joins = 0;  ///< step joins that took the hash path
};

// True for U − e, unshared: a join with it as an input anti-probes e
// instead of materializing U (ComplementJoin).
bool IsComplement(const PlanNode& n) {
  return n.op == PlanOp::kMinusOp && n.share_id < 0 &&
         n.children[0]->op == PlanOp::kUniverseRel;
}

class Executor {
 public:
  Executor(const TripleStore& store, const ExecLimits& limits,
           bool profile = false)
      : store_(store),
        limits_(limits),
        profile_(profile),
        origin_ns_(profile ? MonotonicNanos() : 0) {}

  Result<TripleSet> Exec(PlanNode& n) {
    if (profile_) return ExecProfiled(n);
    n.runtime = PlanRuntime{};
    // The unprofiled fast path: no clock reads, no size forcing — the
    // exact pre-profiling executor.  Zero-cost-when-off hinges on this
    // branch staying clock-free AND on the profiled path living in its
    // own never-inlined function: folding it into Exec measurably
    // regressed the unprofiled microsecond-scale queries (inliner and
    // layout effects in the recursive hot path), not the branch itself.
    Result<TripleSet> result = ExecNode(n);
    if (result.ok()) {
      n.runtime.executed = true;
      if (n.share_id >= 0) KeepShared(n, *result);
    }
    return result;
  }

  // Forgets an earlier execution's runtime on a subtree this execution
  // skips, so a re-executed tree never reports stale rows or spans.
  static void ClearRuntime(PlanNode& n) {
    n.runtime = PlanRuntime{};
    for (PlanPtr& c : n.children) ClearRuntime(*c);
  }

 private:
  __attribute__((noinline)) Result<TripleSet> ExecProfiled(PlanNode& n) {
    // Earlier rounds of this query, when n is in a fixpoint's step
    // (the profiled entry clears the tree, so loops starts at 0).
    const PlanRuntime earlier = n.runtime;
    n.runtime = PlanRuntime{};
    n.runtime.profiled = true;
    n.runtime.start_ns = MonotonicNanos() - origin_ns_;
    Result<TripleSet> result = ExecNode(n);
    // An operator's staged output is sorted on its first read.  Force
    // that inside the span, so the sort is charged to the operator that
    // made the rows, not to its parent (or, at the root, to no span).
    if (result.ok()) (void)result->size();
    n.runtime.end_ns = MonotonicNanos() - origin_ns_;
    n.runtime.cum_ns = earlier.cum_ns + (n.runtime.end_ns - n.runtime.start_ns);
    n.runtime.loops = earlier.loops + 1;
    if (earlier.loops > 0) n.runtime.start_ns = earlier.start_ns;
    // Children execute only inside this node's executions (operators
    // run their children sequentially), so self time is the summed
    // time minus the children's summed time.
    uint64_t child_ns = 0;
    for (const PlanPtr& c : n.children) {
      if (c->runtime.profiled) child_ns += c->runtime.cum_ns;
    }
    const uint64_t cum = n.runtime.cum_ns;
    n.runtime.self_ns = cum > child_ns ? cum - child_ns : 0;
    n.runtime.peak_rows = std::max(n.runtime.peak_rows, earlier.peak_rows);
    if (result.ok()) {
      n.runtime.executed = true;
      // ANALYZE counts every node, including the root: the caller asked
      // for the rows, so the normalize above is work the read was about
      // to pay anyway.
      n.runtime.rows_known = true;
      n.runtime.actual_rows = result->size();
      if (n.runtime.peak_rows < n.runtime.actual_rows) {
        n.runtime.peak_rows = n.runtime.actual_rows;
      }
      n.runtime.actual_rows += earlier.actual_rows;
      if (n.share_id >= 0) KeepShared(n, *result);
    }
    return result;
  }
  // A shared sub-plan's result, kept for the SharedScan leaves that run
  // after it (the planner places the sub-plan at its first use in
  // execution order).  Normalized once here rather than in every copy:
  // each reader was about to sort it anyway.
  void KeepShared(const PlanNode& n, const TripleSet& result) {
    if (n.op == PlanOp::kSharedScan) return;
    result.size();
    shared_.insert_or_assign(n.share_id, result);
  }
  // Notes a child's actual cardinality right before its parent consumes
  // the set.  size() normalizes, but the parent was about to do exactly
  // that (probe loops, hash builds and set operations all read the
  // sorted view), so no work is added that the pre-plan engine didn't
  // pay at the same point.  The profiled path noted the rows (summed
  // over loops) when the child ran.
  void NoteRows(PlanNode& n, const TripleSet& s) {
    if (profile_) return;
    n.runtime.rows_known = true;
    n.runtime.actual_rows = s.size();
  }
  // Profiled-only: a binary operator's peak intermediate is at least
  // both inputs; Exec() folds the output size in afterwards.  Free
  // here — NoteRows just forced both sizes.
  void NotePeakInputs(PlanNode& n, const TripleSet& a, const TripleSet& b) {
    if (!profile_) return;
    n.runtime.peak_rows = std::max(a.size(), b.size());
  }
  Result<TripleSet> ExecNode(PlanNode& n) {
    switch (n.op) {
      case PlanOp::kIndexScan: {
        const TripleSet* rel = store_.FindRelation(n.rel_name);
        if (rel == nullptr) {
          return Status::NotFound("unknown relation: " + n.rel_name);
        }
        // A refcount bump: the copy shares the relation's block.
        return *rel;
      }
      case PlanOp::kEmptyRel:
        return TripleSet();
      case PlanOp::kSharedScan: {
        auto it = shared_.find(n.share_id);
        if (it == shared_.end()) {
          return Status::Internal("shared sub-plan read before it ran");
        }
        return it->second;
      }
      case PlanOp::kUniverseRel:
        return MaterializeUniverse(store_, limits_.max_result_triples);
      case PlanOp::kSelectFilter: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet in, Exec(*n.children[0]));
        NoteRows(*n.children[0], in);
        return SelectIndexed(in, n.spec.cond, store_, &n.runtime.strategy);
      }
      case PlanOp::kUnionOp: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet a, Exec(*n.children[0]));
        TRIAL_ASSIGN_OR_RETURN(TripleSet b, Exec(*n.children[1]));
        NoteRows(*n.children[0], a);
        NoteRows(*n.children[1], b);
        NotePeakInputs(n, a, b);
        TripleSet u = TripleSet::Union(a, b);
        if (u.size() > limits_.max_result_triples) {
          return Status::ResourceExhausted("union result too large");
        }
        return u;
      }
      case PlanOp::kMinusOp: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet a, Exec(*n.children[0]));
        NoteRows(*n.children[0], a);
        const PlanNode& right = *n.children[1];
        const TripleSet* base = AntiProbeBase(right);
        if (base != nullptr &&
            PreferAntiProbe(static_cast<double>(a.size()),
                            static_cast<double>(base->size()),
                            right.est_rows)) {
          return AntiProbe(n, a, *base);
        }
        TRIAL_ASSIGN_OR_RETURN(TripleSet b, Exec(*n.children[1]));
        NoteRows(*n.children[1], b);
        NotePeakInputs(n, a, b);
        n.runtime.strategy = "merge";
        return TripleSet::Difference(a, b);
      }
      case PlanOp::kIndexProbeJoin:
      case PlanOp::kHashJoin:
      case PlanOp::kMergeJoin: {
        const bool comp_right = IsComplement(*n.children[1]);
        if (comp_right || IsComplement(*n.children[0])) {
          return ComplementJoin(n, comp_right);
        }
        TRIAL_ASSIGN_OR_RETURN(TripleSet a, Exec(*n.children[0]));
        TRIAL_ASSIGN_OR_RETURN(TripleSet b, Exec(*n.children[1]));
        NoteRows(*n.children[0], a);
        NoteRows(*n.children[1], b);
        NotePeakInputs(n, a, b);
        return n.op == PlanOp::kMergeJoin ? MergeOrFallback(n, a, b)
                                          : Join(n, a, b);
      }
      case PlanOp::kReachFastPath:
        return Status::Internal("no plan runs ReachFastPath: walk stars "
                                "lower to ReachIndexScan");
      case PlanOp::kFixpointStar: {
        Fixpoint f;
        fixpoints_.push_back(&f);
        Result<TripleSet> result = SemiNaive(n, f);
        fixpoints_.pop_back();
        return result;
      }
      case PlanOp::kDelta: {
        if (fixpoints_.empty()) {
          return Status::Internal("Delta read outside a fixpoint");
        }
        const Fixpoint& f = *fixpoints_.back();
        return n.reads_acc ? Accumulated(f) : f.delta;
      }
      case PlanOp::kReachIndexScan: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet base, Exec(*n.children[0]));
        NoteRows(*n.children[0], base);
        n.runtime.strategy =
            n.reach_same_middle ? "label-index" : "interval-index";
        // GetOrBuild attaches through `base`'s shared block, so a
        // cold build on an IndexScan child warms the store's relation
        // for every later query.
        std::shared_ptr<const reach::ReachIndex> idx =
            reach::ReachIndex::GetOrBuild(
                base, n.reach_same_middle ? reach::ReachGraph::kLabelProduct
                                          : reach::ReachGraph::kSubjectObject);
        if (MetricsEnabled()) {
          MetricsRegistry::Global().GetCounter("reach.index_hits")
              ->Increment();
        }
        return idx->EmitWalk(base, n.walk_col, limits_.max_result_triples);
      }
      case PlanOp::kDijkstraScan: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet base, Exec(*n.children[0]));
        NoteRows(*n.children[0], base);
        n.runtime.strategy = "dijkstra";
        const ObjId src = store_.FindObject(n.sp_src);
        if (src == kInvalidIntern) {
          return Status::NotFound("unknown object: " + n.sp_src);
        }
        ObjId dst = kInvalidIntern;
        if (!n.sp_dst.empty()) {
          dst = store_.FindObject(n.sp_dst);
          if (dst == kInvalidIntern) {
            return Status::NotFound("unknown object: " + n.sp_dst);
          }
        }
        TRIAL_ASSIGN_OR_RETURN(
            reach::ShortestPathResult sp,
            reach::DijkstraShortestPath(base, store_, src, dst));
        n.runtime.sp_reached = sp.reached;
        n.runtime.sp_distance = sp.distance;
        n.runtime.sp_settled = sp.settled;
        return std::move(sp.edges);
      }
    }
    return Status::Internal("unknown plan operator");
  }

  // The stored relation under a difference's right side when it can be
  // anti-probed: an IndexScan, alone or under a chain of SelectFilters.
  // Null for any other shape, for an unknown relation (the merge path
  // reports kNotFound), and when any node of the chain holds a shared
  // sub-plan — a later SharedScan reads its kept result, so it must run.
  const TripleSet* AntiProbeBase(const PlanNode& right) const {
    const PlanNode* r = &right;
    for (; r->op == PlanOp::kSelectFilter; r = r->children[0].get()) {
      if (r->share_id >= 0) return nullptr;
    }
    if (r->op != PlanOp::kIndexScan || r->share_id >= 0) return nullptr;
    return store_.FindRelation(r->rel_name);
  }

  // Anti-probe difference: a left triple leaves the result only when
  // the right side would have produced it — every selection on the
  // chain holds on it (HoldsUnary re-checks θ and η exactly as
  // SelectIndexed verifies its matches) and `base` contains it.  The
  // right subtree never runs; its nodes stay unexecuted, so EXPLAIN
  // renders them actual=- and traces omit them.  The cost rule keeps
  // the left side small, so the loop is serial, and it walks the left
  // in SPO order, so the output is adopted as already sorted.
  Result<TripleSet> AntiProbe(PlanNode& n, const TripleSet& l,
                              const TripleSet& base) {
    n.runtime.strategy = "anti-probe";
    ClearRuntime(*n.children[1]);
    auto in_right = [&](const Triple& t) {
      for (const PlanNode* r = n.children[1].get();
           r->op == PlanOp::kSelectFilter; r = r->children[0].get()) {
        if (!r->spec.cond.HoldsUnary(t, store_)) return false;
      }
      return base.Contains(t);
    };
    std::vector<Triple> out;
    out.reserve(l.size());
    for (const Triple& t : l) {
      if (!in_right(t)) out.push_back(t);
    }
    if (profile_) n.runtime.peak_rows = l.size();
    return TripleSet::FromSortedUnique(std::move(out));
  }

  // Join: filter both sides by their one-sided atoms, locate candidate
  // partners for each left triple — by permutation-index range probe
  // when the key has exact object columns, by hashing the right side
  // otherwise — and verify the full condition on each candidate (covers
  // hash collisions, data equalities and cross inequalities).  Both
  // strategies share the probe loop over the left side (ProbeLoop).
  Result<TripleSet> Join(PlanNode& n, const TripleSet& l, const TripleSet& r) {
    JoinPlan plan = JoinPlan::Build(n.spec.cond);
    const JoinSpec& spec = n.spec;
    // Build the probe plan only when costing favors probing — planning
    // a three-column key computes build-side stats, which would force
    // the very index builds the hash path exists to avoid.  A one-shot
    // join additionally requires the probed permutation to be free or
    // amortized (store-backed build side): a fresh intermediate's cache
    // dies with it, and a single probe pass never repays the sort.
    ProbePlan probe;
    if (PreferIndexProbe(l.size(), r.size())) {
      probe = ProbePlan::Build(plan);
      if (probe.n > 0 && !r.IndexAmortized(probe.Order())) probe.n = 0;
    }
    if (probe.n > 0) {
      n.runtime.strategy = "probe";
      // Build the probed permutation up front, not inside the first
      // probe.
      r.Materialize(probe.Order());
      return ProbeLoop(l, plan,
                       [&](const Triple& a, std::vector<Triple>* out) {
                         for (const Triple& b : probe.Probe(r, a)) {
                           if (!spec.cond.Holds(a, b, store_)) continue;
                           out->push_back(spec.Output(a, b));
                         }
                       });
    }
    n.runtime.strategy = "hash";
    // Under a fixpoint, a table on a round-invariant right side (stored,
    // or kept before the first round) is built once.
    Fixpoint* f = fixpoints_.empty() ? nullptr : fixpoints_.back();
    const PlanNode& right = *n.children[1];
    const bool keep = f != nullptr && (right.op == PlanOp::kIndexScan ||
                                       (right.op == PlanOp::kSharedScan &&
                                        f->outer_shares.count(right.share_id)));
    if (f != nullptr) ++f->hash_joins;
    HashIndex local;
    HashIndex& index = keep ? f->hashes[&n] : local;
    if (!index.built()) {
      index.Build(
          r, [&](const Triple& b) { return plan.PassesRight(b, store_); },
          [&](const Triple& b) { return plan.KeyHashRight(b, store_); });
    }
    return ProbeLoop(l, plan,
                     [&](const Triple& a, std::vector<Triple>* out) {
                       index.ForEach(plan.KeyHashLeft(a, store_),
                                     [&](const Triple& b) {
                                       if (!spec.cond.Holds(a, b, store_)) {
                                         return;
                                       }
                                       out->push_back(spec.Output(a, b));
                                     });
                     });
  }

  // Merge join: both inputs are walked as runs sorted on their key
  // column — the left through IndexOrder(merge_lcol), the right through
  // IndexOrder(merge_rcol) — with no hash table and no per-probe index
  // descent.  The planner promised both runs are cheap (the ordering
  // property); the executor re-verifies through IndexAmortized and
  // falls back to the probe/hash path when the promise does not hold
  // for the actual inputs (e.g. a fallback-mutated set).  However small
  // one side comes out, the galloping merge costs no more than probing
  // the other side once per row, so size alone never falls back.
  Result<TripleSet> MergeOrFallback(PlanNode& n, const TripleSet& l,
                                    const TripleSet& r) {
    const int lc = n.merge_lcol, rc = n.merge_rcol;
    const IndexOrder lorder = static_cast<IndexOrder>(lc);
    const IndexOrder rorder = static_cast<IndexOrder>(rc);
    // The planned key must really be an exact object equality between
    // these columns — defensive: a plan node altered or built by hand
    // degrades to the generic join instead of producing wrong results.
    JoinPlan plan = JoinPlan::Build(n.spec.cond);
    bool key_ok = false;
    for (const JoinPlan::KeyComp& k : plan.key) {
      key_ok = key_ok || (!k.data && PosColumn(k.lpos) == lc &&
                          PosColumn(k.rpos) == rc);
    }
    if (!key_ok || !l.IndexAmortized(lorder) || !r.IndexAmortized(rorder)) {
      return Join(n, l, r);
    }
    n.runtime.strategy = "merge";
    return MergeLoop(n, l, r, plan);
  }

  // Past this many rows of one run per row of the other, the longer
  // run's cursor moves by a binary search of the whole run instead of a
  // gallop.  Its gaps are then so long that nearly every gallop step
  // misses the cache, while the search's top levels stay cached across
  // rows and queries (sp2b_read's `chain3`: 20 rows against 10^6).
  static constexpr size_t kWholeRunSearchRatio = 1024;

  // The merge kernel.  Whichever cursor is behind gallops to the other
  // run's key, so k rows against n cost O(k log(n/k)) key compares on
  // either side, not k + n.  At an equal key every left row of the
  // group that passes its one-sided filters is checked against the
  // whole right group.  Guarded like ProbeLoop.
  Result<TripleSet> MergeLoop(PlanNode& n, const TripleSet& l,
                              const TripleSet& r, const JoinPlan& plan) {
    const JoinSpec& spec = n.spec;
    const int lc = n.merge_lcol, rc = n.merge_rcol;
    const TripleRange lrun = l.Scan(static_cast<IndexOrder>(lc));
    const TripleRange rrun = r.Scan(static_cast<IndexOrder>(rc));
    // Executor-side verification of the planner's ordering claim:
    // both runs must really be non-decreasing on their key columns.
    assert(std::is_sorted(lrun.begin(), lrun.end(),
                          [lc](const Triple& x, const Triple& y) {
                            return x[lc] < y[lc];
                          }));
    assert(std::is_sorted(rrun.begin(), rrun.end(),
                          [rc](const Triple& x, const Triple& y) {
                            return x[rc] < y[rc];
                          }));
    // The first row at or after `cur` in `run` whose column `col` is
    // not below `key`.  Every row before `cur` is below it, so a search
    // of the whole run lands there too.
    auto seek = [](const TripleRange& run, const Triple* cur, bool whole,
                   int col, ObjId key) {
      auto before = [col, key](const Triple& t) { return t[col] < key; };
      return whole ? std::partition_point(run.begin(), run.end(), before)
                   : Gallop(cur, run.end(), before);
    };
    const bool lwhole = lrun.size() >= kWholeRunSearchRatio * rrun.size();
    const bool rwhole = rrun.size() >= kWholeRunSearchRatio * lrun.size();
    std::vector<Triple> out;
    const Triple* a = lrun.begin();
    const Triple* b = rrun.begin();
    while (a != lrun.end() && b != rrun.end()) {
      const ObjId k = (*a)[lc];
      const ObjId kb = (*b)[rc];
      if (k < kb) {
        a = seek(lrun, a, lwhole, lc, kb);
        continue;
      }
      if (kb < k) {
        b = seek(rrun, b, rwhole, rc, k);
        continue;
      }
      const Triple* group_end = b;
      while (group_end != rrun.end() && (*group_end)[rc] == k) ++group_end;
      for (; a != lrun.end() && (*a)[lc] == k; ++a) {
        if (!plan.PassesLeft(*a, store_)) continue;
        for (const Triple* x = b; x != group_end; ++x) {
          if (!spec.cond.Holds(*a, *x, store_)) continue;
          out.push_back(spec.Output(*a, *x));
        }
        if (out.size() > limits_.max_result_triples) {
          return Status::ResourceExhausted("join result too large");
        }
      }
      b = group_end;
    }
    return TripleSet(std::move(out));
  }

  // The join probe loop: applies `match` (which appends verified output
  // triples) to every left triple passing the one-sided filters, and
  // stops once the output passes max_result_triples.  The left side is
  // read in an order it already has: the output is normalized anyway,
  // and it reaches the guard's bound in any order or in none.
  template <typename Match>
  Result<TripleSet> ProbeLoop(const TripleSet& l, const JoinPlan& plan,
                              const Match& match) {
    std::vector<Triple> out;
    for (const Triple& a : l.Scan(l.ReadyOrder())) {
      if (!plan.PassesLeft(a, store_)) continue;
      match(a, &out);
      if (out.size() > limits_.max_result_triples) {
        return Status::ResourceExhausted("join result too large");
      }
    }
    return TripleSet(std::move(out));
  }

  // Semi-naive fixpoint (plan.h): for a star ⋈ distributes over ∪, so
  // t_{n+1} = t_n ⋈ e is covered by Δ ⋈ e; for Datalog see to_trial.h.
  // A join's unsorted output is deduplicated against the accumulator as
  // it comes: only its new rows, the next Δ, are sorted, when read.
  static TripleSet Accumulated(const Fixpoint& f) {
    return TripleSet(std::vector<Triple>(f.seen.begin(), f.seen.end()));
  }

  Result<TripleSet> SemiNaive(PlanNode& n, Fixpoint& f) {
    const size_t last = n.children.size() - 1;
    for (size_t i = 0; i < last; ++i) {
      TRIAL_ASSIGN_OR_RETURN(TripleSet in, Exec(*n.children[i]));
      NoteRows(*n.children[i], in);
      if (i == 0) f.delta = std::move(in);
    }
    f.seen.insert(f.delta.begin(), f.delta.end());
    for (const auto& kept : shared_) f.outer_shares.insert(kept.first);
    PlanNode& step = *n.children[last];
    for (size_t round = 0; round < limits_.max_rounds; ++round) {
      const size_t hashed = f.hash_joins;
      TRIAL_ASSIGN_OR_RETURN(TripleSet out, Exec(step));
      n.runtime.rounds = round + 1;
      ++(f.hash_joins == hashed ? n.runtime.probe_rounds
                                : n.runtime.hash_rounds);
      const bool raw = out.HasStaged();  // a join's output, unsorted
      std::vector<Triple> taken = raw ? std::move(out).TakeRows()
                                      : std::vector<Triple>();
      std::vector<Triple> next;
      for (const Triple& t : raw ? taken : out.triples()) {
        if (!f.seen.insert(t).second) continue;
        next.push_back(t);
        if (f.seen.size() > limits_.max_result_triples) {
          return Status::ResourceExhausted("fixpoint result too large");
        }
      }
      if (profile_) {  // the accumulator and the live delta
        n.runtime.peak_rows = std::max(n.runtime.peak_rows,
                                       f.seen.size() + f.delta.size());
      }
      if (next.empty()) return Accumulated(f);
      f.delta = raw ? TripleSet(std::move(next))
                    : TripleSet::FromSortedUnique(std::move(next));
    }
    return Status::ResourceExhausted("fixpoint exceeded round limit");
  }

  // other ⋈ (U − e), or (U − e) ⋈ other through the mirrored spec,
  // without materializing U (plan.h).  The complement node and U stay
  // unexecuted.  Guarded like ProbeLoop.
  Result<TripleSet> ComplementJoin(PlanNode& n, bool comp_right) {
    PlanNode& other = *n.children[comp_right ? 0 : 1];
    PlanNode& comp = *n.children[comp_right ? 1 : 0];
    PlanNode& excluded = *comp.children[1];
    ClearRuntime(comp);
    TripleSet l, e;  // run in child order, as shared sub-plans expect
    for (PlanNode* in : comp_right ? std::array{&other, &excluded}
                                   : std::array{&excluded, &other}) {
      TRIAL_ASSIGN_OR_RETURN(TripleSet rows, Exec(*in));
      NoteRows(*in, rows);
      (in == &other ? l : e) = std::move(rows);
    }
    NotePeakInputs(n, l, e);
    n.runtime.strategy = "anti-probe";
    if (active_.empty()) {
      adom_ = ActiveObjects(store_);
      active_.assign(store_.NumObjects(), false);
      for (ObjId o : adom_) active_[o] = true;
    }
    const JoinSpec spec = comp_right ? n.spec : MirrorSpec(n.spec);
    const JoinPlan plan = JoinPlan::Build(spec.cond);
    // A right column is copied from a (an exact key), pinned to a
    // constant, or enumerated; the condition re-checks each candidate.
    enum { kFree = -1, kConst = -2 };
    int from[3] = {kFree, kFree, kFree};
    ObjId pinned[3] = {0, 0, 0};
    for (const JoinPlan::KeyComp& k : plan.key) {
      if (!k.data) from[PosColumn(k.rpos)] = PosColumn(k.lpos);
    }
    for (const ObjConstraint& c : plan.right_theta) {
      if (!c.equal || c.lhs.is_pos == c.rhs.is_pos) continue;
      const int col = PosColumn(c.lhs.is_pos ? c.lhs.pos : c.rhs.pos);
      from[col] = kConst;
      pinned[col] = c.lhs.is_pos ? c.rhs.constant : c.lhs.constant;
    }
    std::vector<Triple> out;
    ObjId r[3] = {0, 0, 0};
    // Fills right columns c.. for row a; false past the cap.
    auto fill = [&](auto& self, const Triple& a, int c) -> bool {
      if (c == 3) {
        const Triple t{r[0], r[1], r[2]};
        if (!spec.cond.Holds(a, t, store_) || e.Contains(t)) return true;
        out.push_back(spec.Output(a, t));
        return out.size() <= limits_.max_result_triples;
      }
      if (from[c] == kFree) {
        for (ObjId v : adom_) {
          r[c] = v;
          if (!self(self, a, c + 1)) return false;
        }
        return true;
      }
      r[c] = from[c] == kConst ? pinned[c] : a[from[c]];
      // Outside U: an object that occurs in no triple.
      if (r[c] >= active_.size() || !active_[r[c]]) return true;
      return self(self, a, c + 1);
    };
    for (const Triple& a : l.Scan(l.ReadyOrder())) {
      if (!plan.PassesLeft(a, store_)) continue;
      if (!fill(fill, a, 0)) {
        return Status::ResourceExhausted("join result too large");
      }
    }
    return TripleSet(std::move(out));
  }

  const TripleStore& store_;
  const ExecLimits& limits_;
  const bool profile_;
  const uint64_t origin_ns_;  ///< query-start clock origin (profiled only)
  std::unordered_map<int, TripleSet> shared_;  ///< by PlanNode::share_id
  std::vector<Fixpoint*> fixpoints_;  ///< running fixpoints, innermost last
  std::vector<ObjId> adom_;    ///< U's domain, loaded by ComplementJoin
  std::vector<bool> active_;   ///< adom_ as a bitmap by ObjId
};

// Walks an executed tree bumping the per-strategy counters; called only
// when metrics recording is on.
void CountStrategies(const PlanNode& n, MetricsRegistry& reg) {
  if (n.runtime.executed && n.runtime.strategy != nullptr) {
    static constexpr const char* kPrefix = "exec.strategy.";
    reg.GetCounter(std::string(kPrefix) + n.runtime.strategy)->Increment();
  }
  for (const PlanPtr& c : n.children) CountStrategies(*c, reg);
}

// Runs the tree and verifies the snapshot.  A lazy snapshot decode that
// hit corruption yields empty scans, not a Status — surface the sticky
// diagnostic instead of a silently wrong (empty/partial) result.  The
// result itself may be a still-lazy pass-through of a relation (a bare
// index scan), so force it too.
Result<TripleSet> ExecVerified(PlanNode& root, const TripleStore& store,
                               const ExecLimits& limits, bool profile) {
  Executor exec(store, limits, profile);
  if (profile) exec.ClearRuntime(root);  // loops count this query only
  Result<TripleSet> result = exec.Exec(root);
  if (result.ok()) TRIAL_RETURN_IF_ERROR(result->VerifyMaterialized());
  TRIAL_RETURN_IF_ERROR(store.SnapshotStatus());
  return result;
}

}  // namespace

Result<TripleSet> ExecutePlan(PlanNode& root, const TripleStore& store,
                              const ExecLimits& limits, bool profile) {
  // Metrics are one relaxed atomic load when off; the clock is read
  // only when something (metrics or profiling) will consume it.
  const bool metrics = MetricsEnabled();
  const uint64_t t0 = metrics ? MonotonicNanos() : 0;
  Result<TripleSet> result = ExecVerified(root, store, limits, profile);
  if (metrics) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("exec.queries")->Increment();
    reg.GetHistogram("exec.query_ns")->Observe(MonotonicNanos() - t0);
    if (result.ok()) {
      // Count the rows only where that is free.  A result with pending
      // inserts would be sorted here, inside the executor, instead of at
      // the caller's first read; RecordRootRows observes it then.
      if (!result->HasStaged()) {
        reg.GetHistogram("exec.result_rows")->Observe(result->size());
      } else {
        root.runtime.result_rows_pending = true;
      }
    } else {
      reg.GetCounter("exec.query_errors")->Increment();
    }
    CountStrategies(root, reg);
  }
  return result;
}

void RecordRootRows(PlanNode& root, const TripleSet& result) {
  root.runtime.rows_known = true;
  root.runtime.actual_rows = result.size();
  if (root.runtime.result_rows_pending) {
    root.runtime.result_rows_pending = false;
    MetricsRegistry::Global().GetHistogram("exec.result_rows")->Observe(
        root.runtime.actual_rows);
  }
}

}  // namespace plan
}  // namespace trial
