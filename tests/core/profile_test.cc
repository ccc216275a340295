// The profiling half of the observability layer: EXPLAIN ANALYZE
// rendering, span-trace collection and nesting invariants, q-error
// agreement with the planner-estimate tests, the trace sink API, and
// the contract that the unprofiled executor path records nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "graph/generators.h"
#include "rdf/ntriples.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace trial {
namespace plan {
namespace {

// Mirrors plan_test.cc's SkewedStore: the stores the PlannerEstimates
// q-error bounds are asserted on.
TripleStore SkewedStore(size_t triples, uint64_t seed = 11) {
  RandomStoreOptions opts;
  opts.num_objects = triples / 4 + 8;
  opts.num_triples = triples;
  opts.zipf_p = 1.3;
  opts.zipf_o = 0.8;
  opts.seed = seed;
  TripleStore store = RandomTripleStore(opts);
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  return store;
}

// Mirrors plan_test.cc's MultiJoinStore: two big Zipf relations plus a
// 24-triple one, so the DP reorderer produces a genuinely reshaped
// (bushy-capable) 3-relation plan.
TripleStore MultiJoinStore() {
  RandomStoreOptions opts;
  opts.num_objects = 200;
  opts.num_triples = 2500;
  opts.num_relations = 2;
  opts.zipf_p = 1.1;
  opts.zipf_o = 0.9;
  opts.seed = 29;
  TripleStore store = RandomTripleStore(opts);
  Rng rng(31);
  RelId tiny = store.AddRelation("tiny");
  auto obj = [&] {
    return store.InternObject("o" + std::to_string(rng.Below(200)));
  };
  for (int i = 0; i < 24; ++i) store.Add(tiny, obj(), obj(), obj());
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  return store;
}

ExprPtr CompositionJoin(ExprPtr l, ExprPtr r) {
  return Expr::Join(std::move(l), std::move(r),
                    Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
}

// Checks every span-tree invariant the exporter documents: child
// intervals nest inside the parent's, siblings are ordered and
// non-overlapping (children execute sequentially) unless they loop
// (a fixpoint step runs once per round), a single execution's time is
// its span, and self time is the summed time minus the children's.
void CheckSpanInvariants(const QueryTrace& trace) {
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_EQ(trace.spans[0].parent, -1);
  EXPECT_EQ(trace.wall_ns, trace.spans[0].end_ns - trace.spans[0].start_ns);
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpan& s = trace.spans[i];
    EXPECT_LE(s.start_ns, s.end_ns) << "span " << i;
    EXPECT_GE(s.loops, 1u) << "span " << i;
    if (s.loops == 1) {
      EXPECT_EQ(s.cum_ns, s.end_ns - s.start_ns) << "span " << i;
    } else {
      EXPECT_LE(s.cum_ns, s.end_ns - s.start_ns) << "span " << i;
    }
    uint64_t child_ns = 0;
    uint64_t prev_end = s.start_ns;
    for (size_t c = i + 1; c < trace.spans.size(); ++c) {
      if (trace.spans[c].parent != static_cast<int>(i)) continue;
      const TraceSpan& child = trace.spans[c];
      EXPECT_EQ(child.depth, s.depth + 1);
      // Nested inside the parent; after the previous sibling unless the
      // parent ran several times, interleaving its children's loops.
      EXPECT_GE(child.start_ns, s.start_ns) << "span " << c;
      EXPECT_LE(child.end_ns, s.end_ns) << "span " << c;
      if (s.loops == 1) {
        EXPECT_GE(child.start_ns, prev_end) << "span " << c;
        prev_end = child.end_ns;
      }
      child_ns += child.cum_ns;
    }
    EXPECT_EQ(s.self_ns, s.cum_ns - child_ns) << "span " << i;
    EXPECT_TRUE(s.rows_known) << "span " << i;
    EXPECT_GE(s.q_error, 1.0) << "span " << i;
  }
}

// How many times `needle` occurs in `text`.
size_t Occurrences(const std::string& text, const char* needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(QErrorFn, ClampsAndIsSymmetricRatio) {
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(100, 25), 4.0);
  EXPECT_DOUBLE_EQ(QError(25, 100), 4.0);
  // Zeros and sub-1 estimates clamp instead of dividing by zero.
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.25, 2), 2.0);
  EXPECT_DOUBLE_EQ(QError(8, 0), 8.0);
  // NaN estimates read as "no information" and infinities clamp to a
  // huge finite ratio — q-error is always finite and >= 1, so it can
  // feed histograms and trace exports safely.
  EXPECT_DOUBLE_EQ(QError(std::numeric_limits<double>::quiet_NaN(), 6), 6.0);
  EXPECT_TRUE(std::isfinite(QError(std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::infinity())));
  EXPECT_GE(QError(-std::numeric_limits<double>::infinity(), 2), 1.0);
}

// The profile layer's q-error must be exactly the ratio the
// PlannerEstimates suite computes — same plan, same stores, same seeds
// — so the tested <= 2.5 bound carries over to ANALYZE output.
TEST(ProfileQError, MatchesPlannerEstimateComputationOnZipfStores) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    TripleStore store = SkewedStore(4096, seed);
    ExprPtr e = Expr::Join(
        Expr::Rel("E"), Expr::Rel("E"),
        Spec(Pos::P1, Pos::P3, Pos::P3p, {Eq(Pos::P2, Pos::P2p)}));
    PlanPtr p = PlanExpr(e, store);
    auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
    ASSERT_TRUE(r.ok());
    double actual = static_cast<double>(r->size());
    ASSERT_GT(actual, 0);
    // The PlannerEstimates.EquiJoinQErrorBoundedOnZipfStores formula.
    double expected = std::max(p->est_rows / actual, actual / p->est_rows);
    ASSERT_TRUE(p->runtime.rows_known);
    EXPECT_EQ(p->runtime.actual_rows, r->size());
    EXPECT_DOUBLE_EQ(QError(p->est_rows, actual), expected);
    QueryTrace trace = CollectTrace(*p);
    ASSERT_FALSE(trace.spans.empty());
    EXPECT_DOUBLE_EQ(trace.spans[0].q_error, expected) << "seed " << seed;
    EXPECT_LE(trace.spans[0].q_error, 2.5) << "seed " << seed;
  }
}

// Bushy DP-reordered 3-relation plan, profiled: the trace satisfies
// the nesting and monotonicity invariants (operators run their
// children in order, so sibling spans never interleave).
TEST(SpanTrace, NestsForDpReorderedPlan) {
  TripleStore store = MultiJoinStore();
  ExprPtr e = CompositionJoin(
      CompositionJoin(Expr::Rel("E"), Expr::Rel("E1")), Expr::Rel("tiny"));
  PlanPtr p = PlanExpr(e, store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(p->runtime.profiled);
  QueryTrace trace = CollectTrace(*p, "multi-join");
  // One span per plan node: the DP plan joins three scans.
  EXPECT_EQ(trace.spans.size(), p->TreeSize());
  EXPECT_GE(trace.spans.size(), 5u);
  CheckSpanInvariants(trace);
  // The JSON export nests one object per span.
  std::string json = TraceToJson(trace);
  size_t ops = 0;
  for (size_t at = json.find("\"op\":"); at != std::string::npos;
       at = json.find("\"op\":", at + 1)) {
    ++ops;
  }
  EXPECT_EQ(ops, trace.spans.size());
  EXPECT_NE(json.find("\"query\": \"multi-join\""), std::string::npos);
  EXPECT_NE(json.find("\"children\": ["), std::string::npos);
}

// The feedback path profiles like the plain one: ExecuteAdaptive runs
// its plan once on the single executor, so a 3-leaf join region gets
// one clock origin, properly nested spans, and a root whose cumulative
// time covers its children's.
TEST(SpanTrace, AdaptiveExecutionNestsUnderOneClockOrigin) {
  TripleStore store = MultiJoinStore();
  ExprPtr e = CompositionJoin(
      CompositionJoin(Expr::Rel("E"), Expr::Rel("E1")), Expr::Rel("tiny"));
  FeedbackCache fb;
  AdaptiveResult ar;
  auto r = ExecuteAdaptive(e, store, {}, /*profile=*/true, &ar, &fb);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(ar.plan, nullptr);
  const PlanNode& root = *ar.plan;
  ASSERT_NE(root.region_mask, 0u) << Explain(root);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_TRUE(root.runtime.profiled);
  EXPECT_EQ(root.runtime.actual_rows, r->size());
  uint64_t child_cum = 0;
  for (const PlanPtr& c : root.children) {
    ASSERT_TRUE(c->runtime.profiled);
    child_cum += c->runtime.end_ns - c->runtime.start_ns;
  }
  EXPECT_GE(root.runtime.end_ns - root.runtime.start_ns, child_cum);
  QueryTrace trace = CollectTrace(root, "adaptive");
  EXPECT_EQ(trace.spans.size(), root.TreeSize());
  EXPECT_EQ(trace.spans[0].start_ns, root.runtime.start_ns);
  CheckSpanInvariants(trace);
}

TEST(ExplainAnalyzeRender, AnnotatesEveryLineWithRuntimeFields) {
  TripleStore store = SkewedStore(4096);
  ExprPtr e = CompositionJoin(Expr::Rel("E"), Expr::Rel("E"));
  PlanPtr p = PlanExpr(e, store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok());
  std::string text = ExplainAnalyze(*p);
  // Every operator line carries self/cumulative time and peak size.
  size_t lines = static_cast<size_t>(
      std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, p->TreeSize());
  EXPECT_EQ(Occurrences(text, " self="), lines) << text;
  EXPECT_EQ(Occurrences(text, " cum="), lines) << text;
  EXPECT_EQ(Occurrences(text, " peak="), lines) << text;
  EXPECT_EQ(Occurrences(text, " q="), lines) << text;
  // This self-join picks the merge join; the strategy renders inline.
  EXPECT_NE(text.find("(merge)"), std::string::npos) << text;
  EXPECT_NE(text.find("MergeJoin"), std::string::npos) << text;
}

TEST(ExplainAnalyzeRender, UnprofiledTreeFallsBackToExplainFields) {
  TripleStore store = SkewedStore(256);
  PlanPtr p = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("E")),
                       store);
  auto r = ExecutePlan(*p, store);  // profile off
  ASSERT_TRUE(r.ok());
  std::string text = ExplainAnalyze(*p);
  EXPECT_EQ(text.find(" self="), std::string::npos) << text;
  EXPECT_EQ(text.find(" cum="), std::string::npos) << text;
}

// The zero-cost-when-off contract, pinned at the observable level: the
// default ExecutePlan leaves every profiling field untouched.
TEST(ProfileOff, DefaultExecutionRecordsNoProfilingState) {
  TripleStore store = SkewedStore(512);
  PlanPtr p = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("E")),
                       store);
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok());
  std::vector<const PlanNode*> stack = {p.get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    EXPECT_FALSE(n->runtime.profiled);
    EXPECT_EQ(n->runtime.start_ns, 0u);
    EXPECT_EQ(n->runtime.end_ns, 0u);
    EXPECT_EQ(n->runtime.self_ns, 0u);
    EXPECT_EQ(n->runtime.peak_rows, 0u);
    for (const PlanPtr& c : n->children) stack.push_back(c.get());
  }
  // CollectTrace over an unprofiled (but executed) tree still flattens
  // the nodes; spans just carry zero timestamps.
  QueryTrace trace = CollectTrace(*p);
  EXPECT_EQ(trace.spans.size(), p->TreeSize());
  EXPECT_EQ(trace.wall_ns, 0u);
}

// Metrics must not move work between layers: with the registry on,
// ExecutePlan counts exec.result_rows only when the count is free, so a
// result comes back with the same pending normalization either way and
// the sort stays with the caller's first read.  A union result is
// normalized by its merge, a join result is not; the join's count is
// observed by RecordRootRows instead.  A p-pinned selection is born in
// OSP order: its count is free though its SPO order is not built.
TEST(MetricsOn, ExecutorLeavesPendingNormalizationToTheCaller) {
  TripleStore store = SkewedStore(512);
  const ExprPtr join = CompositionJoin(Expr::Rel("E"), Expr::Rel("E"));
  const ExprPtr queries[] = {
      Expr::Union(join, Expr::Rel("E")), join,
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, 2)}))};
  Histogram* rows = MetricsRegistry::Global().GetHistogram("exec.result_rows");
  const bool was = MetricsEnabled();
  bool ready[3][2];  // [query][metrics on]: the count is free
  for (int q = 0; q < 3; ++q) {
    for (bool on : {false, true}) {
      SetMetricsEnabled(on);
      PlanPtr p = PlanExpr(queries[q], store);
      const uint64_t before = rows->count();
      auto r = ExecutePlan(*p, store);
      ASSERT_TRUE(r.ok());
      ready[q][on] = !r->HasStaged();
      if (q == 2) {
        EXPECT_FALSE(r->IndexReady(IndexOrder::kSPO));
      }
      const uint64_t at_exec = rows->count();
      RecordRootRows(*p, *r);
      RecordRootRows(*p, *r);  // a second read observes nothing more
      EXPECT_EQ(at_exec - before, on && ready[q][on] ? 1u : 0u) << q;
      EXPECT_EQ(rows->count() - before, on ? 1u : 0u) << q;
    }
    EXPECT_EQ(ready[q][false], ready[q][true]) << q;
  }
  SetMetricsEnabled(was);
  // Every shape is covered: the union merged, the join still pending,
  // the selection born sorted.
  EXPECT_TRUE(ready[0][false]);
  EXPECT_FALSE(ready[1][false]);
  EXPECT_TRUE(ready[2][false]);
}

class RecordingSink : public TraceSink {
 public:
  void Consume(const QueryTrace& trace) override {
    traces.push_back(trace);
  }
  std::vector<QueryTrace> traces;
};

TEST(TraceSinkApi, InstalledSinkSeesEmittedTracesAndRestores) {
  TripleStore store = SkewedStore(256);
  PlanPtr p = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("E")),
                       store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok());

  RecordingSink sink;
  TraceSink* prev = SetTraceSink(&sink);
  EXPECT_EQ(prev, nullptr);
  EmitTrace(CollectTrace(*p, "q1"));
  EmitTrace(CollectTrace(*p, "q2"));
  // Restore and verify the uninstalled sink no longer receives.
  EXPECT_EQ(SetTraceSink(prev), &sink);
  EmitTrace(CollectTrace(*p, "q3"));
  ASSERT_EQ(sink.traces.size(), 2u);
  EXPECT_EQ(sink.traces[0].query, "q1");
  EXPECT_EQ(sink.traces[1].query, "q2");
  EXPECT_FALSE(sink.traces[0].spans.empty());
}

// ---- actual-rows accounting audit (golden) -----------------------------
//
// The per-operator actual-rows contract: whenever a node reports
// rows_known, actual_rows is exactly the normalized (sorted-unique)
// cardinality of the set that node produced — for every operator,
// including a MergeJoin root, and RecordRootRows assigns rather than
// accumulates (calling it again never double-counts).
TEST(ActualRowsAudit, RootAndChildrenMatchResult) {
  TripleStore store = SkewedStore(4096);
  ExprPtr e = CompositionJoin(Expr::Rel("E"), Expr::Rel("E"));
  PlanPtr p = PlanExpr(e, store);
  ASSERT_EQ(p->op, PlanOp::kMergeJoin) << Explain(*p);
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok());
  ASSERT_STREQ(p->runtime.strategy, "merge") << Explain(*p);
  RecordRootRows(*p, *r);
  size_t first = p->runtime.actual_rows;
  EXPECT_EQ(first, r->size());
  // Idempotent: a second record (e.g. a caller printing twice) and a
  // repeated size() read report the same count.
  RecordRootRows(*p, *r);
  EXPECT_EQ(p->runtime.actual_rows, first);
  for (const PlanPtr& c : p->children) {
    ASSERT_TRUE(c->runtime.rows_known);
    EXPECT_EQ(c->runtime.actual_rows, store.FindRelation("E")->size());
  }
}

// Same audit through the profiled path, which records rows on every
// node itself: the root count must equal both the returned set's size
// and what RecordRootRows would assign.
TEST(ActualRowsAudit, ProfiledRootCountAgreesWithRecordRootRows) {
  TripleStore store = MultiJoinStore();
  ExprPtr e = CompositionJoin(
      CompositionJoin(Expr::Rel("E"), Expr::Rel("E1")), Expr::Rel("tiny"));
  PlanPtr p = PlanExpr(e, store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(p->runtime.rows_known);
  size_t profiled = p->runtime.actual_rows;
  EXPECT_EQ(profiled, r->size());
  RecordRootRows(*p, *r);
  EXPECT_EQ(p->runtime.actual_rows, profiled);
  // peak >= max(output, every input that fed the root).
  EXPECT_GE(p->runtime.peak_rows, profiled);
  for (const PlanPtr& c : p->children) {
    EXPECT_GE(p->runtime.peak_rows, c->runtime.actual_rows);
  }
}

// The trace adds up: an operator's output is sorted inside its own
// span, so on a join whose large output comes out unsorted the root
// span covers ExecutePlan's wall time (before, the root's sort ran
// after its span closed, outside every span).  Best of three runs, so
// one preemption in the few instructions outside the span cannot fail
// the check.
TEST(SpanTrace, RootSpanCoversExecutePlanWallTime) {
  RandomStoreOptions opts;
  opts.num_objects = 4000;
  opts.num_triples = 20000;
  opts.seed = 5;
  TripleStore store = RandomTripleStore(opts);
  store.FindRelation("E")->triples();
  // (o', p, s): the probe loop walks the left side in SPO order, so the
  // staged output is far from sorted.
  ExprPtr e = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                         Spec(Pos::P3p, Pos::P2, Pos::P1,
                              {Eq(Pos::P3, Pos::P1p)}));
  double best = 0;
  for (int run = 0; run < 3; ++run) {
    PlanPtr p = PlanExpr(e, store);
    const uint64_t t0 = MonotonicNanos();
    auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
    const uint64_t wall = MonotonicNanos() - t0;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT(r->size(), 50000u);
    const uint64_t root = p->runtime.end_ns - p->runtime.start_ns;
    best = std::max(best, static_cast<double>(root) /
                              static_cast<double>(std::max<uint64_t>(wall, 1)));
  }
  EXPECT_GE(best, 0.95);
}

// Fixpoint profiling: rounds split into probe/hash is already recorded
// by the unprofiled path; the profiled path adds the peak accumulator
// size, which is at least the final result.
TEST(ProfiledFixpoint, RecordsRoundsAndPeakAccumulator) {
  // A small cycle so the star closes in a handful of rounds.
  TripleStore store;
  RelId rel = store.AddRelation("E");
  ObjId p0 = store.InternObject("p");
  std::vector<ObjId> nodes;
  for (int i = 0; i < 40; ++i) {
    nodes.push_back(store.InternObject("n" + std::to_string(i)));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    store.Add(rel, nodes[i], p0, nodes[(i + 1) % nodes.size()]);
  }
  ExprPtr e = Expr::StarRight(
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2p, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
  PlanPtr p = PlanExpr(e, store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok());
  const PlanNode* star = p.get();
  while (star->op != PlanOp::kFixpointStar) {
    ASSERT_FALSE(star->children.empty()) << Explain(*p);
    star = star->children[0].get();
  }
  EXPECT_GE(star->runtime.rounds, 2u) << Explain(*p);
  EXPECT_EQ(star->runtime.rounds,
            star->runtime.probe_rounds + star->runtime.hash_rounds);
  EXPECT_GE(star->runtime.peak_rows, star->runtime.actual_rows);
  std::string text = ExplainAnalyze(*p);
  EXPECT_NE(text.find(" rounds="), std::string::npos) << text;
}

// Every node of a subtree (the root included).
void ForEachNode(const PlanNode& n, const std::function<void(const PlanNode&)>& f) {
  f(n);
  for (const PlanPtr& c : n.children) ForEachNode(*c, f);
}

// The general-recursive program of tests/cli/both_ways.dl on Figure 1's
// shape: the fixpoint's step runs once per round, and the profile sums
// the rounds instead of keeping only the last one.  Every step node
// loops once per round; the Delta leaf reads each accumulated row in
// exactly one round; FixpointStar's self time excludes every round's
// step time; the trace nests and EXPLAIN ANALYZE prints the loops.
TEST(ProfiledFixpoint, StepSumsEveryRoundOnBothWaysProgram) {
  auto text = ReadFileToString(std::string(TRIAL_TESTS_DIR) +
                               "/cli/both_ways.dl");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto program = datalog::ParseProgram(*text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  TripleStore store = TransportNetwork(TransportOptions{});
  auto p = datalog::PlanProgram(*program, store);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  PlanNode& root = **p;
  auto r = ExecutePlan(root, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(root.op, PlanOp::kFixpointStar) << Explain(root);
  const size_t rounds = root.runtime.rounds;
  ASSERT_GE(rounds, 3u) << ExplainAnalyze(root);
  EXPECT_EQ(root.runtime.loops, 1u);
  EXPECT_EQ(root.runtime.actual_rows, r->size());

  const PlanNode& step = *root.children.back();
  size_t delta_rows = 0, deltas = 0;
  ForEachNode(step, [&](const PlanNode& n) {
    EXPECT_EQ(n.runtime.loops, rounds) << PlanOpName(n.op);
    if (n.op == PlanOp::kDelta) {
      delta_rows += n.runtime.actual_rows;
      ++deltas;
    }
  });
  ASSERT_GT(deltas, 0u) << Explain(root);
  EXPECT_EQ(delta_rows, deltas * r->size()) << ExplainAnalyze(root);

  uint64_t child_ns = 0;
  for (const PlanPtr& c : root.children) child_ns += c->runtime.cum_ns;
  EXPECT_EQ(root.runtime.self_ns, root.runtime.cum_ns - child_ns);
  EXPECT_LT(step.runtime.cum_ns, step.runtime.end_ns - step.runtime.start_ns);

  QueryTrace trace = CollectTrace(root, "both_ways");
  EXPECT_EQ(trace.spans.size(), root.TreeSize());
  CheckSpanInvariants(trace);
  const std::string analyzed = ExplainAnalyze(root);
  EXPECT_NE(analyzed.find(" loops=" + std::to_string(rounds)),
            std::string::npos)
      << analyzed;
  EXPECT_NE(TraceToJson(trace).find("\"loops\": " + std::to_string(rounds)),
            std::string::npos);
}

// The anti-probe difference on every reporting surface.  EXPLAIN
// ANALYZE names the strategy and renders the right subtree, which never
// runs, as actual=-.  The span trace leaves that subtree out, still
// nests, and charges the probes to MinusOp's self time.  The metrics
// registry counts both difference strategies and nothing for the
// skipped side.  A tree re-executed with the other strategy reports no
// stale runtime from the earlier run.
TEST(AntiProbeDifference, ReportsOnEverySurface) {
  TripleStore store = SkewedStore(4096);
  const ExprPtr hot =
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, 0)}));
  const ExprPtr probed = Expr::Diff(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P1, 3)})), hot);
  const ExprPtr merged = Expr::Diff(Expr::Rel("E"), hot);
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* anti = reg.GetCounter("exec.strategy.anti-probe");
  Counter* merge = reg.GetCounter("exec.strategy.merge");
  Counter* index = reg.GetCounter("exec.strategy.index");
  const uint64_t anti0 = anti->value(), merge0 = merge->value(),
                 index0 = index->value();
  const bool was = MetricsEnabled();
  SetMetricsEnabled(true);
  PlanPtr p = PlanExpr(probed, store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  PlanPtr m = PlanExpr(merged, store);
  auto rm = ExecutePlan(*m, store);
  SetMetricsEnabled(was);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(rm.ok()) << rm.status().ToString();
  auto want = MakeNaiveEvaluator()->Eval(probed, store);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*r, *want);

  ASSERT_EQ(p->op, PlanOp::kMinusOp);
  ASSERT_STREQ(p->runtime.strategy, "anti-probe") << Explain(*p);
  EXPECT_STREQ(m->runtime.strategy, "merge") << Explain(*m);
  // One anti-probe, one merge, and two indexed selections: the
  // anti-probed query's left and the merged query's right.
  EXPECT_EQ(anti->value() - anti0, 1u);
  EXPECT_EQ(merge->value() - merge0, 1u);
  EXPECT_EQ(index->value() - index0, 2u);

  const std::string text = ExplainAnalyze(*p);
  const std::string head = text.substr(0, text.find('\n'));
  EXPECT_NE(head.find("MinusOp"), std::string::npos) << text;
  EXPECT_NE(head.find("(anti-probe)"), std::string::npos) << text;
  // The right side: a SelectFilter over an IndexScan, neither run.
  EXPECT_EQ(Occurrences(text, " actual=-"), 2u) << text;
  EXPECT_EQ(Occurrences(text, " self="), 3u) << text;

  QueryTrace trace = CollectTrace(*p, "anti-probe");
  EXPECT_EQ(trace.spans.size(), p->TreeSize() - 2);
  CheckSpanInvariants(trace);
  const TraceSpan& root = trace.spans[0];
  EXPECT_EQ(root.strategy, "anti-probe");
  EXPECT_GT(root.self_ns, 0u);
  const std::string json = TraceToJson(trace);
  EXPECT_NE(json.find("\"strategy\": \"anti-probe\""), std::string::npos);

  // Force the merge on the same tree, then let the rule pick the
  // anti-probe again: the right subtree must read as not run.
  PlanNode& right = *p->children[1];
  const double est = right.est_rows;
  right.est_rows = 0;
  ASSERT_TRUE(ExecutePlan(*p, store, {}, /*profile=*/true).ok());
  EXPECT_STREQ(p->runtime.strategy, "merge");
  EXPECT_TRUE(right.runtime.executed);
  right.est_rows = est;
  auto again = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *want);
  EXPECT_STREQ(p->runtime.strategy, "anti-probe");
  EXPECT_FALSE(right.runtime.executed);
  EXPECT_FALSE(right.children[0]->runtime.executed);
  const std::string rerun = ExplainAnalyze(*p);
  EXPECT_EQ(Occurrences(rerun, " actual=-"), 2u) << rerun;
  EXPECT_EQ(Occurrences(rerun, " self="), 3u) << rerun;
  CheckSpanInvariants(CollectTrace(*p));
}

}  // namespace
}  // namespace plan
}  // namespace trial
