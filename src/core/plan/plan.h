// Physical plan IR: the costed operator tree every evaluator shares.
//
// The Triple Algebra (Section 3) is compositional, and so is its
// execution here: a planner (planner.cc) lowers an algebra Expr tree —
// typically after the optimizer.cc rewrites — into a small tree of
// physical operators, one per algebra node:
//
//   IndexScan       E                (a stored relation, SPO order)
//   EmptyRel / UniverseRel           (∅ and U)
//   SelectFilter    σ_{θ,η}(e)       (indexed probe or filter scan)
//   IndexProbeJoin  e ⋈ e            (probe the build side's permutation)
//   HashJoin        e ⋈ e            (per-call hash table on key columns)
//   MergeJoin       e ⋈ e            (walk two key-sorted runs in step)
//   UnionOp/MinusOp e ∪ e, e − e
//   FixpointStar    (e ⋈)*, (⋈ e)*,  (semi-naive: a seed, then a step
//                   Datalog recursion per round)
//   Delta           a step's round input
//   ReachIndexScan  walk stars       (interval reachability indexes;
//                                     reachTA= stars included)
//   DijkstraScan    shortest paths   (weights from rho; PlanShortestPath)
//   SharedScan      a shared e       (the result of e's one execution)
//
// Expressions may share subexpressions: ProgramToTriAL hands the same
// Expr to every use of a Datalog predicate, so a predicate built from
// a predicate used twice is a DAG whose unfolded tree doubles at each
// level.  The planner lowers every shared non-leaf Expr once.  The
// first of its uses in execution order holds the sub-plan (share_id
// set); every later use is a SharedScan leaf with the same share_id,
// which the executor serves from the result the sub-plan kept.
//
// Ordering property: every operator's output can be read sorted on its
// own column 0 (the SPO permutation: a join's output is sorted into it
// when first read), and two kinds of leaf have more orders free.  An
// IndexScan serves any column as a sorted run through the store-shared
// POS/OSP permutations.  A SelectFilter pinning only p on an IndexScan
// reads a POS range, which is sorted on (o, s): its result is born in
// OSP order, so column 2 is free, and SPO is sorted from it only if a
// consumer reads it.  The DP join reorderer (reorder.cc) propagates
// exactly this property — a merge join needs its key class in column 0
// of an intermediate, column 0 or 2 of such a selection, or any column
// of a base relation — and the executor re-verifies it through
// TripleSet::IndexAmortized before walking the runs.  A lazily built
// order is paid by the operator that first reads it, and EXPLAIN
// ANALYZE charges it there (profile.h).
//
// A FixpointStar runs its first child (the seed) and middle children
// (the step's round-invariant inputs, read through SharedScan) once,
// then its last child (the step) per round, each Delta leaf bound to
// the last round's new rows (reads_acc: all rows so far), until a round
// adds nothing.  A TriAL star that is no walk is the one-rule case:
// seed e, step Δ ⋈θ e.  Datalog's general recursion is a FixpointDef.
//
// A join with a complement input U − e never materializes U: e runs
// once, and per row of the other input only the complement columns no
// key or constant pins are enumerated over the active domain.
//
// Each node carries the planner's cardinality estimate and access-path
// choice; the executor (plan_exec.cc) fills in actual row counts and
// the strategy it really ran, so Explain() (explain.cc) can render
// estimated-vs-actual side by side.  The per-join and per-fixpoint-round
// probe-vs-hash cost rule that used to live inline in smart_eval.cc is
// exported here (JoinPlan / ProbePlan / PreferIndexProbe), next to the
// difference's anti-probe-vs-merge rule (PreferAntiProbe), making the
// decisions unit-testable.
//
// Contract: executing the plan of an expression produces the same
// normalized result set as the naive evaluator on every store.  Join
// order and strategy (probe / hash / merge) are chosen by the planner
// from statistics, and the executor re-checks every cost rule against
// actual cardinalities before committing to a strategy — whatever it
// picks, the result set is the same.  Every kernel runs serially.

#ifndef TRIAL_CORE_PLAN_PLAN_H_
#define TRIAL_CORE_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/exec_limits.h"
#include "core/expr.h"
#include "storage/triple_store.h"
#include "util/status.h"

namespace trial {
namespace plan {

class FeedbackCache;  // core/plan/adapt.h — learned cardinality cache

// ---- planning hints ----------------------------------------------------

/// A semi-naive fixpoint with no TriAL* expression (a general-recursive
/// Datalog predicate, datalog/to_trial.h), told to PlanExpr by
/// placeholder Rel leaves, matched by address.  Every use of `self`
/// lowers to one shared FixpointStar; inside seed and step, `acc` reads
/// the rows so far and `delta` the last round's.
struct FixpointDef {
  ExprPtr self, acc, delta, seed, step;
  /// Round-invariant subexpressions `step` reads, planned once.
  std::vector<ExprPtr> inputs;
};

/// Optional inputs threaded through PlanExpr / ReorderJoinRegion.  The
/// default-constructed value plans from statistics alone.  Pointees
/// must outlive the planning call.
struct PlanningHints {
  /// Observed cardinalities from prior executions, consulted before
  /// statistics (adapt.h).
  const FeedbackCache* feedback = nullptr;
  /// The fixpoints whose placeholders the expression may read.
  const std::vector<FixpointDef>* fixpoints = nullptr;
};

// ---- shared access / cost primitives ----------------------------------

/// Access-path costing: a range probe costs ~log2(|build|) comparisons
/// per probe-side triple; a hash table costs ~|build| bucket inserts up
/// front but O(1) lookups.  Probing wins when the probe side is much
/// smaller than the build side (selective joins, late fixpoint deltas);
/// the 4x factor absorbs the constant gap between a bucket insert and a
/// binary-search step.  Takes doubles so planner estimates (which can
/// exceed SIZE_MAX for U-subtrees) feed in without a narrowing cast;
/// integral sizes convert exactly up to 2^53.
bool PreferIndexProbe(double probe_count, double build_size);

/// Difference costing: e − σ*(R), with R a stored relation under zero
/// or more selections, either materializes the right side (~est(R)
/// rows copied, sorted and merged) or anti-probes it — one membership
/// search of R's SPO base per left triple, ~log2(|R|) comparisons each,
/// the right subtree never run.  Anti-probing wins when
/// |L|·log2(|R| + 2) < est(R).  Takes only sizes and the planner's
/// estimate, so deciding forces no stats and no permutation build.
bool PreferAntiProbe(double left_rows, double base_size, double right_est);

/// Selectivity of the constant equality column = v on a relation with
/// `distinct` values in that column.  When `rel` is the stored relation
/// itself, it is priced from what `rel` already holds, without building
/// a permutation or decoding a snapshot segment: the exact range size
/// |σ_{column=v}(rel)| / |rel| when the permutation serving `column` is
/// ready (IndexReady, two binary searches), else v's exact heavy-hitter
/// count, or the tail average (n − Σtopk) / (d − k) for a value outside
/// the cached top-k.  Without either (`rel` null, no cached stats, no
/// aggregated projection) it is the uniform 1 / max(distinct, 1).
double ConstEqSelectivity(const TripleSet* rel, int column, ObjId v,
                          double distinct);

/// A join execution plan: one-sided filters + cross equality key
/// columns, split out of the (θ, η) condition.
struct JoinPlan {
  struct KeyComp {
    Pos lpos;
    Pos rpos;
    bool data = false;  // compare rho() values instead of objects
  };
  std::vector<ObjConstraint> left_theta, right_theta;
  std::vector<DataConstraint> left_eta, right_eta;
  std::vector<KeyComp> key;
  bool has_residual = false;  // any atom not covered by filters+exact keys

  static JoinPlan Build(const CondSet& cond);

  bool PassesLeft(const Triple& t, const TripleStore& store) const {
    for (const ObjConstraint& c : left_theta) {
      if (!c.Holds(t, t)) return false;
    }
    for (const DataConstraint& c : left_eta) {
      if (!c.Holds(t, t, store)) return false;
    }
    return true;
  }
  bool PassesRight(const Triple& t, const TripleStore& store) const {
    for (const ObjConstraint& c : right_theta) {
      if (!c.Holds(t, t)) return false;
    }
    for (const DataConstraint& c : right_eta) {
      if (!c.Holds(t, t, store)) return false;
    }
    return true;
  }

  uint64_t KeyHashLeft(const Triple& t, const TripleStore& store) const;
  uint64_t KeyHashRight(const Triple& t, const TripleStore& store) const;
};

/// Index-probe plan: when the cross condition has exact object-column
/// equalities, the build side of a join is consumed through its
/// permutation indexes (sorted range probes) instead of a per-call hash
/// table.  The permutation builds once — O(n log n), cached on the set
/// and shared with the store's relation — where the hash table is
/// rebuilt from scratch on every call.  Up to two distinct build-side
/// columns are probed (any column pair is some permutation's sorted
/// prefix, see PlanAccess); further keys are re-verified per candidate.
struct ProbePlan {
  int n = 0;                              // probed columns: 0 (use hash), 1, 2
  int build_col[2] = {0, 0};              // column on the indexed side
  Pos probe_pos[2] = {Pos::P1, Pos::P1};  // value source on the probe side

  /// The right join argument is the indexed side.
  static ProbePlan Build(const JoinPlan& plan);

  /// The permutation this plan probes on the build side.
  IndexOrder Order() const {
    bool bind[3] = {false, false, false};
    for (int i = 0; i < n; ++i) bind[build_col[i]] = true;
    return PlanAccess(bind[0], bind[1], bind[2]).order;
  }

  /// Candidate range on the build side for probe-side triple `t`.
  TripleRange Probe(const TripleSet& build, const Triple& t) const {
    ObjId v0 = PosValue(t, t, probe_pos[0]);
    if (n == 1) return build.Lookup(build_col[0], v0);
    return build.LookupPair(build_col[0], v0, build_col[1],
                            PosValue(t, t, probe_pos[1]));
  }
};

// ---- the operator tree -------------------------------------------------

/// Physical operator kinds, one per algebra node shape.
enum class PlanOp : uint8_t {
  kIndexScan,       ///< stored relation E
  kEmptyRel,        ///< ∅
  kUniverseRel,     ///< U over the store's active objects
  kSelectFilter,    ///< σ_{θ,η}(child) — indexed probe or filter scan
  kIndexProbeJoin,  ///< child ⋈ child, build side consumed via an index
  kHashJoin,        ///< child ⋈ child, per-call hash table on the keys
  kMergeJoin,       ///< child ⋈ child, both sides walked as sorted runs
  kUnionOp,         ///< child ∪ child
  kMinusOp,         ///< child − child — merge, or anti-probe a stored right
  kFixpointStar,    ///< semi-naive iteration: seed, then step per round
  /// Never planned (walk stars, reachTA= ones included, lower to
  /// kReachIndexScan); kept only as a name perfbench's per-operator
  /// metrics enumerate.  The executor rejects it with kInternal.
  kReachFastPath,
  kReachIndexScan,  ///< walk star via an interval reachability index
  kDijkstraScan,    ///< weighted shortest path / SSSP tree over rho
  kSharedScan,      ///< a shared sub-plan's kept result (share_id)
  kDelta,           ///< the enclosing fixpoint's round input
};

const char* PlanOpName(PlanOp op);

/// What the executor actually did, filled during ExecutePlan and
/// rendered by Explain() next to the planner's predictions.
///
/// Cardinalities are recorded only where counting is free: a child's
/// rows are noted when its parent consumes (and thereby normalizes)
/// the set — exactly where the pre-plan engine paid that sort — and
/// the root's rows come from RecordRootRows, which the caller invokes
/// only when it is about to read the result anyway.  TripleSets
/// normalize lazily, and an engine-path caller that discards or
/// forwards the result must not be forced to sort it just to fill in
/// a diagnostic.
struct PlanRuntime {
  bool executed = false;
  bool rows_known = false;  ///< actual_rows is valid
  size_t actual_rows = 0;
  /// The join/select/difference path really taken ("probe", "hash",
  /// "index", "scan", "anti-probe", "merge", ...); null when the
  /// operator has no strategy choice.
  const char* strategy = nullptr;
  size_t rounds = 0;        ///< fixpoint rounds until saturation
  size_t probe_rounds = 0;  ///< rounds whose step joins hashed nothing
  size_t hash_rounds = 0;   ///< rounds in which a step join hashed
  /// Root only: metrics were on, but the result was not yet normalized
  /// when ExecutePlan returned, so exec.result_rows is left to
  /// RecordRootRows — and stays unobserved when nobody calls it.
  bool result_rows_pending = false;

  // ---- kDijkstraScan ---------------------------------------------------
  bool sp_reached = false;   ///< destination reachable (or src in graph)
  int64_t sp_distance = 0;   ///< dist(src, dst) when reached
  size_t sp_settled = 0;     ///< nodes settled before termination

  // ---- profiling (ExecutePlan with profile=true only) -----------------
  //
  // The profiled path additionally timestamps every operator against
  // one steady-clock origin per execution and records actual rows on
  // EVERY node, root included (an ANALYZE caller asked for the
  // diagnostics; the normalization it forces is the read the caller
  // was about to do anyway).  The unprofiled path never reads the
  // clock — see the executor's fast path — so the committed bench
  // baselines measure the same code the pre-profiling engine ran.
  //
  // A fixpoint's step subtree runs once per round.  Its nodes sum over
  // those executions (`loops`): actual_rows, cum_ns and self_ns are
  // totals, and [start_ns, end_ns] runs from the first execution's
  // start to the last one's end, so a looped node's spans interleave
  // with its siblings'.
  bool profiled = false;
  size_t loops = 0;       ///< executions in this query (profiled only)
  uint64_t start_ns = 0;  ///< first start, relative to query start
  uint64_t end_ns = 0;    ///< last end
  uint64_t cum_ns = 0;    ///< time inside the operator, summed over loops
  uint64_t self_ns = 0;   ///< cum_ns minus the children's cum_ns
  /// Largest intermediate this operator held: inputs and output for
  /// joins/set ops, the peak accumulator for fixpoints.
  size_t peak_rows = 0;
};

/// Actual rows of one execution: the mean over loops for a looped
/// (profiled fixpoint-step) node, so it compares with est_rows.
inline double RowsPerLoop(const PlanRuntime& r) {
  const double rows = static_cast<double>(r.actual_rows);
  return r.loops > 1 ? rows / static_cast<double>(r.loops) : rows;
}

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

/// One physical operator.  Planner-owned fields are immutable after
/// PlanExpr; `runtime` is written by ExecutePlan.
struct PlanNode {
  PlanOp op = PlanOp::kEmptyRel;

  std::string rel_name;  ///< kIndexScan; kFixpointStar: Datalog predicate
  JoinSpec spec;            ///< joins + stars; selections use spec.cond
  bool star_right = true;   ///< kFixpointStar: (e ⋈)* vs (⋈ e)*
  /// kDelta: read the accumulated relation, not the last round's rows.
  bool reads_acc = false;
  /// kReachIndexScan: the walk is partitioned by label (served by the
  /// label-product index).
  bool reach_same_middle = false;
  /// kReachIndexScan: the column (0..2) the walk moves.
  int walk_col = 2;

  /// kDijkstraScan: source / destination object *names*, resolved
  /// against the store at execution time (NotFound then — planning
  /// never fails).  Empty sp_dst means the full shortest-path tree.
  std::string sp_src;
  std::string sp_dst;

  /// kMergeJoin: the key columns the two sorted runs are walked on.
  /// The left run is Scan(IndexOrder(merge_lcol)) — the permutation
  /// whose leading column is the key — and likewise for the right; the
  /// cursor that is behind gallops to the other's key.  The executor
  /// falls back to probe/hash only when either run's permutation is not
  /// amortized (see the ordering property in the file comment).
  int merge_lcol = 0;
  int merge_rcol = 0;

  /// Predicted access path: the probed permutation for
  /// kIndexProbeJoin / indexed kSelectFilter, kSPO otherwise.
  AccessPath access;
  /// Planner cardinality estimate (rows out of this operator).
  double est_rows = 0;
  /// Per-column distinct-value estimates of the output, used by parent
  /// operators' selectivity math (exact stats for kIndexScan).
  double est_distinct[3] = {0, 0, 0};

  /// DP join-region bookkeeping (reorder.cc): which leaves of the
  /// enclosing join region this subtree covers (bitmask over the
  /// region's flattened left-to-right leaf order).  Zero mask = not part
  /// of a reordered region.  ExecuteAdaptive (adapt.cc) keys observed
  /// subset cardinalities on it (RegionSubsetKey).
  uint32_t region_mask = 0;

  /// Shared sub-plans (see the file comment): on a kSharedScan leaf, the
  /// sub-plan it reads; on any other node, the id under which the
  /// executor keeps this node's result for those leaves.  -1 = not
  /// shared.
  int share_id = -1;

  std::vector<PlanPtr> children;

  PlanRuntime runtime;

  /// Total node count of the subtree.
  size_t TreeSize() const;
};

// ---- entry points ------------------------------------------------------

/// The spec of the join with its inputs swapped:
/// MirrorSpec(s).Output(r, l) == s.Output(l, r).
JoinSpec MirrorSpec(const JoinSpec& spec);

/// Lowers a (validated) expression into a physical plan against
/// `store`.  Never fails: an unknown relation plans as a zero-estimate
/// scan and surfaces kNotFound at execution time, exactly as the
/// evaluators always did.  Uses relations' cached stats and already
/// built permutations when available (CachedStats, IndexReady) but never
/// forces a permutation build or a segment decode — estimates are
/// generic heuristics until something computes the real counts.
PlanPtr PlanExpr(const ExprPtr& e, const TripleStore& store);

/// PlanExpr with planning hints: a FeedbackCache of observed
/// cardinalities consulted before statistics.  `PlanExpr(e, store)` ≡
/// hints = {}.
PlanPtr PlanExpr(const ExprPtr& e, const TripleStore& store,
                 const PlanningHints& hints);
PlanPtr PlanExpr(const Expr& e, const TripleStore& store,
                 const PlanningHints& hints);

/// Plans a weighted shortest-path query over relation `rel`: a
/// DijkstraScan above the relation's scan.  `dst` empty plans the full
/// shortest-path tree from `src`.  Like PlanExpr this never fails —
/// unknown relation or object names surface as kNotFound at execution.
PlanPtr PlanShortestPath(const TripleStore& store, const std::string& rel,
                         const std::string& src, const std::string& dst);

/// Runs the tree, filling each node's `runtime`.  Re-entrant per node
/// tree (a tree may be executed again; runtime is overwritten).  The
/// result is byte-identical to the pre-plan smart evaluator.  The
/// root's actual cardinality is NOT recorded here (see PlanRuntime);
/// call RecordRootRows before rendering Explain when you want it.
///
/// With `profile` set, every operator is additionally wall-clock
/// timestamped and row-counted (PlanRuntime's profiling fields) for
/// ExplainAnalyze / CollectTrace (core/plan/profile.h).  Results are
/// identical either way; the unprofiled path reads no clocks.
Result<TripleSet> ExecutePlan(PlanNode& root, const TripleStore& store,
                              const ExecLimits& limits = {},
                              bool profile = false);

/// Records `result`'s cardinality on the root node for Explain, and the
/// exec.result_rows observation ExecutePlan left pending.  This
/// normalizes (sorts) the result if nothing has read it yet — call it
/// only when you are about to consume the result anyway.  With metrics
/// on, exec.result_rows therefore counts only the results that came
/// back normalized or went through RecordRootRows: smart Eval without
/// `adaptive`, for one, returns its result unread and leaves it out.
void RecordRootRows(PlanNode& root, const TripleSet& result);

/// Renders the tree, one operator per line, children indented, with
/// estimated vs actual cardinalities:
///
///   HashJoin [1,2,3'; 3=1'] est=1.2e4 actual=11873 (hash)
///     IndexScan E est=50000 actual=50000
///     IndexScan E est=50000 actual=50000
std::string Explain(const PlanNode& root);

/// The operator summary shared by Explain and ExplainAnalyze: op name,
/// spec/relation detail, and the via= access-path note, no cardinality
/// or runtime fields.  Appended to `out`.
void AppendNodeSummary(const PlanNode& n, std::string* out);

}  // namespace plan
}  // namespace trial

#endif  // TRIAL_CORE_PLAN_PLAN_H_
