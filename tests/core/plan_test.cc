// The physical plan layer: planner lowering and cost decisions (golden
// tests on Zipf-skewed stores), the Explain renderer, the shared
// scan/probe primitives, and the contract that plan execution is
// byte-identical to the evaluators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "graph/generators.h"
#include "storage/segment/store_snapshot.h"
#include "util/rng.h"

namespace trial {
namespace plan {
namespace {

// A Zipf-skewed store big enough that the probe-vs-hash costing rule
// has a real gap between selective and unselective sides.  Stats are
// warmed so the golden tests assert on exact distinct counts — the
// same state an EXPLAIN user sees (the CLIs warm stats explicitly; the
// planner alone never forces the builds, see PlanningDoesNotForceIndexBuilds).
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

ExprPtr CompositionJoin(ExprPtr l, ExprPtr r) {
  return Expr::Join(std::move(l), std::move(r),
                    Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
}

// ---- planner golden tests ---------------------------------------------

TEST(PlannerGolden, SelectiveLeftSidePredictsIndexProbeJoin) {
  TripleStore store = SkewedStore(4096);
  // A constant-pinned left side is tiny; probing E's SPO base (join key
  // 3=1' binds the build-side subject) must beat hashing all of E.
  ExprPtr e = CompositionJoin(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P3, 3)})),
      Expr::Rel("E"));
  PlanPtr p = PlanExpr(e, store);
  EXPECT_EQ(p->op, PlanOp::kIndexProbeJoin) << Explain(*p);
  EXPECT_EQ(p->access.order, IndexOrder::kSPO) << Explain(*p);
  EXPECT_EQ(p->children[0]->op, PlanOp::kSelectFilter);
  EXPECT_EQ(p->children[1]->op, PlanOp::kIndexScan);
  // The selection estimate must be far below the scan estimate.
  EXPECT_LT(p->children[0]->est_rows, p->children[1]->est_rows / 4);
}

TEST(PlannerGolden, UniformSelfJoinChoosesMergeJoin) {
  TripleStore store = SkewedStore(4096);
  // Neither side is selective, so probing loses (|L| log |R| ≫ |L|+|R|)
  // — and with both inputs stored relations, every key column is an
  // index-ordered sorted run, so the merge join (|L|+|R|) undercuts the
  // hash join's |L|+2|R| build-and-probe.
  ExprPtr e = CompositionJoin(Expr::Rel("E"), Expr::Rel("E"));
  PlanPtr p = PlanExpr(e, store);
  ASSERT_EQ(p->op, PlanOp::kMergeJoin) << Explain(*p);
  // Key 3=1': the left run walks OSP (object-led), the right walks the
  // SPO base — both served by store-shared permutations.
  EXPECT_EQ(p->merge_lcol, 2) << Explain(*p);
  EXPECT_EQ(p->merge_rcol, 0) << Explain(*p);
  EXPECT_EQ(p->children[0]->op, PlanOp::kIndexScan);
  EXPECT_EQ(p->children[1]->op, PlanOp::kIndexScan);
  // The executor agrees with the prediction on actual cardinalities.
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok());
  EXPECT_STREQ(p->runtime.strategy, "merge") << Explain(*p);
}

TEST(PlannerGolden, IndexOrderFollowsBuildSideKeyColumns) {
  TripleStore store = SkewedStore(4096);
  ExprPtr small = Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P3, 3)}));
  struct Case {
    ObjConstraint key;
    IndexOrder want;
  };
  // The probed permutation is the one whose sorted prefix serves the
  // build-side key column(s): 1' -> SPO, 2' -> POS, 3' -> OSP.
  for (const Case& c : {Case{Eq(Pos::P3, Pos::P1p), IndexOrder::kSPO},
                        Case{Eq(Pos::P3, Pos::P2p), IndexOrder::kPOS},
                        Case{Eq(Pos::P3, Pos::P3p), IndexOrder::kOSP}}) {
    ExprPtr e = Expr::Join(small, Expr::Rel("E"),
                           Spec(Pos::P1, Pos::P2, Pos::P3p, {c.key}));
    PlanPtr p = PlanExpr(e, store);
    ASSERT_EQ(p->op, PlanOp::kIndexProbeJoin) << Explain(*p);
    EXPECT_EQ(p->access.order, c.want) << Explain(*p);
  }
  // A bound (subject, predicate) pair on the build side is an SPO
  // prefix — no permutation build needed.
  ExprPtr pair = Expr::Join(
      small, Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2, Pos::P3p,
           {Eq(Pos::P3, Pos::P1p), Eq(Pos::P2, Pos::P2p)}));
  PlanPtr p = PlanExpr(pair, store);
  ASSERT_EQ(p->op, PlanOp::kIndexProbeJoin) << Explain(*p);
  EXPECT_EQ(p->access.order, IndexOrder::kSPO) << Explain(*p);
  EXPECT_EQ(p->access.prefix, 2);
}

TEST(PlannerGolden, SelectionAccessPathTracksBoundColumns) {
  TripleStore store = SkewedStore(2048);
  // Predicate pinned on a store-backed scan: POS probe predicted.
  PlanPtr p = PlanExpr(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, 2)})), store);
  EXPECT_EQ(p->op, PlanOp::kSelectFilter);
  EXPECT_EQ(p->access.order, IndexOrder::kPOS);
  EXPECT_GT(p->access.prefix, 0);
  // The same selection over a fresh intermediate (union) does not
  // amortize a POS build; the planner predicts a filter scan.
  PlanPtr q = PlanExpr(
      Expr::Select(Expr::Union(Expr::Rel("E"), Expr::Rel("E")),
                   Where({EqConst(Pos::P2, 2)})),
      store);
  EXPECT_EQ(q->access.prefix, 0);
}

// A selection pinning only p on a stored relation reads a POS range,
// which is sorted on (o, s): its result is born in OSP order, with no
// sort, and sorts SPO only when something reads it.  A selection
// pinning o reads an OSP range sorted on (s, p), born in SPO order.
TEST(PlannerGolden, PinnedPredicateSelectionIsBornInOsp) {
  TripleStore store = SkewedStore(2048);
  const TripleSet& e = *store.FindRelation("E");
  PlanPtr p = PlanExpr(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, 2)})), store);
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_STREQ(p->runtime.strategy, "index") << Explain(*p);
  EXPECT_TRUE(r->IndexReady(IndexOrder::kOSP));
  EXPECT_FALSE(r->IndexReady(IndexOrder::kSPO));
  EXPECT_FALSE(r->IndexReady(IndexOrder::kPOS));
  std::vector<Triple> want;
  for (const Triple& t : e.Scan(IndexOrder::kOSP)) {
    if (t.p == 2) want.push_back(t);
  }
  ASSERT_FALSE(want.empty());
  TripleRange osp = r->Scan(IndexOrder::kOSP);
  EXPECT_EQ(std::vector<Triple>(osp.begin(), osp.end()), want);
  EXPECT_FALSE(r->IndexReady(IndexOrder::kSPO));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(r->triples(), want);

  PlanPtr q = PlanExpr(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P3, 3)})), store);
  auto o = ExecutePlan(*q, store);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_STREQ(q->runtime.strategy, "index") << Explain(*q);
  EXPECT_TRUE(o->IndexReady(IndexOrder::kSPO));
}

// That order is visible to the reorderer: σ[2=p](E) joined on its
// object merges E's SPO run on the selection's OSP run (the pred_join
// shape), where it used to probe or hash.  Joined on their subjects
// (the subject_star shape), two such selections would each need an SPO
// sort before a merge, so they hash, reading the order they have.
TEST(PlannerGolden, PinnedPredicateJoinMergesOnOsp) {
  TripleStore store = SkewedStore(4096);
  PlanPtr star = PlanExpr(
      Expr::Join(
          Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, 2)})),
          Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, 5)})),
          Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P1, Pos::P1p)})),
      store);
  EXPECT_EQ(star->op, PlanOp::kHashJoin) << Explain(*star);
  for (ObjId pred : {ObjId{2}, ObjId{5}}) {
    ExprPtr e = CompositionJoin(
        Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, pred)})),
        Expr::Rel("E"));
    PlanPtr p = PlanExpr(e, store);
    ASSERT_EQ(p->op, PlanOp::kMergeJoin) << Explain(*p);
    EXPECT_EQ(p->merge_lcol, 2) << Explain(*p);
    EXPECT_EQ(p->merge_rcol, 0) << Explain(*p);
    EXPECT_NE(Explain(*p).find("via=OSP/SPO"), std::string::npos)
        << Explain(*p);
    auto r = ExecutePlan(*p, store);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_STREQ(p->runtime.strategy, "merge") << Explain(*p);
    auto want = MakeNaiveEvaluator()->Eval(e, store);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*r, *want);
  }
}

TEST(PlannerGolden, ReachStarsLowerToIndexScan) {
  TripleStore store = SkewedStore(512);
  // A store-backed any-path star runs on the interval index, built cold.
  PlanPtr a = PlanExpr(ReachAnyPath(Expr::Rel("E")), store);
  ASSERT_EQ(a->op, PlanOp::kReachIndexScan);
  EXPECT_FALSE(a->reach_same_middle);
  // The reach estimate must exceed the base: the arbitrary-path star is
  // output-bound superlinear, and the estimate makes that visible.
  EXPECT_GT(a->est_rows, a->children[0]->est_rows);

  // A small cold store takes the same route: there is no size gate.
  TripleStore tiny = SkewedStore(48);
  PlanPtr a2 = PlanExpr(ReachAnyPath(Expr::Rel("E")), tiny);
  ASSERT_EQ(a2->op, PlanOp::kReachIndexScan);
  EXPECT_FALSE(a2->reach_same_middle);

  // The same-middle star is a walk partitioned by label: it runs on the
  // label-product index, large or small.
  PlanPtr b = PlanExpr(ReachSameMiddle(Expr::Rel("E")), store);
  ASSERT_EQ(b->op, PlanOp::kReachIndexScan);
  EXPECT_TRUE(b->reach_same_middle);
  PlanPtr b2 = PlanExpr(ReachSameMiddle(Expr::Rel("E")), tiny);
  ASSERT_EQ(b2->op, PlanOp::kReachIndexScan);
  EXPECT_TRUE(b2->reach_same_middle);

  // A non-reach spec stays a generic fixpoint with a probe order for
  // the fixed side.
  PlanPtr c = PlanExpr(
      Expr::StarRight(Expr::Rel("E"),
                      Spec(Pos::P1, Pos::P2p, Pos::P3p,
                           {Eq(Pos::P3, Pos::P1p)})),
      store);
  ASSERT_EQ(c->op, PlanOp::kFixpointStar);
  EXPECT_EQ(c->access.order, IndexOrder::kSPO);
  EXPECT_GT(c->est_rows, c->children[0]->est_rows);
}

TEST(PlannerGolden, WarmWalksArePricedFromTheIndex) {
  // Figure 1's shape: once a walk's index is warm, the planner prices
  // the walk from the index's closure count, within 10% of the rows it
  // produces — the lift, the any-path and the same-middle star alike.
  TransportOptions opts;
  opts.num_cities = 1500;
  opts.num_services = 6;
  opts.seed = 3;
  TripleStore store = TransportNetwork(opts);
  ExprPtr lift = Expr::StarRight(
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P3p, Pos::P3, {Eq(Pos::P2, Pos::P1p)}));
  for (const ExprPtr& star : {ReachAnyPath(Expr::Rel("E")),
                              ReachSameMiddle(Expr::Rel("E")), lift}) {
    // The first execution builds the index cold and attaches it to the
    // store's relation.
    PlanPtr cold = PlanExpr(star, store);
    ASSERT_EQ(cold->op, PlanOp::kReachIndexScan) << Explain(*cold);
    ASSERT_TRUE(ExecutePlan(*cold, store).ok());
    PlanPtr warm = PlanExpr(star, store);
    ASSERT_EQ(warm->op, PlanOp::kReachIndexScan) << Explain(*warm);
    auto r = ExecutePlan(*warm, store, {}, /*profile=*/true);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(QError(warm->est_rows, static_cast<double>(r->size())), 1.1)
        << ExplainAnalyze(*warm);
  }
}

TEST(PlannerGolden, PlanningDoesNotForceIndexBuilds) {
  // Lowering must never pay the O(n log n) permutation builds a query
  // may not need — estimates stay heuristic until someone computes
  // real stats (the executor's amortization gate owns that decision).
  RandomStoreOptions opts;
  opts.num_objects = 200;
  opts.num_triples = 800;
  opts.seed = 3;
  TripleStore store = RandomTripleStore(opts);
  const TripleSet* rel = store.FindRelation("E");
  ASSERT_EQ(rel->CachedStats(), nullptr);
  PlanPtr p = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("E")), store);
  EXPECT_EQ(rel->CachedStats(), nullptr) << "planning built an index";
  EXPECT_GT(p->est_rows, 0);
  // Nor does pricing a constant selection: without a ready POS it falls
  // back to the distinct-count heuristic instead of building one.
  ObjId pred = rel->triples().front().p;
  PlanPtr sel = PlanExpr(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, pred)})), store);
  EXPECT_FALSE(rel->IndexReady(IndexOrder::kPOS)) << "planning built POS";
  EXPECT_EQ(rel->CachedStats(), nullptr) << "planning built an index";
  EXPECT_GT(sel->est_rows, 0);
  // Exact stats sharpen the estimate once computed.
  rel->Stats();
  PlanPtr q = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("E")), store);
  EXPECT_NE(rel->CachedStats(), nullptr);
  EXPECT_GT(q->est_rows, 0);
}

TEST(PlannerGolden, UniverseAndComplementEstimates) {
  TripleStore store = SkewedStore(512);
  double n = static_cast<double>(store.NumObjects());
  double e_rows = static_cast<double>(store.FindRelation("E")->size());

  // U itself: the full cube, n distinct values per column.
  PlanPtr u = PlanExpr(Expr::Universe(), store);
  EXPECT_EQ(u->op, PlanOp::kUniverseRel);
  EXPECT_DOUBLE_EQ(u->est_rows, n * n * n);
  EXPECT_DOUBLE_EQ(u->est_distinct[0], n);

  // Complement e^c = U − e: containment is exact, so the estimate is
  // the difference — not the old |U| upper bound.
  PlanPtr c = PlanExpr(Expr::Diff(Expr::Universe(), Expr::Rel("E")), store);
  EXPECT_EQ(c->op, PlanOp::kMinusOp);
  EXPECT_DOUBLE_EQ(c->est_rows, n * n * n - e_rows);
  EXPECT_DOUBLE_EQ(c->est_distinct[0], n);

  // e − U is empty (every triple of e is over O).
  PlanPtr z = PlanExpr(Expr::Diff(Expr::Rel("E"), Expr::Universe()), store);
  EXPECT_DOUBLE_EQ(z->est_rows, 0.0);

  // The generic case keeps the |a| upper bound.
  PlanPtr g = PlanExpr(Expr::Diff(Expr::Rel("E"), Expr::Rel("E")), store);
  EXPECT_DOUBLE_EQ(g->est_rows, e_rows);
}

TEST(PlannerGolden, UnknownRelationPlansAndFailsAtExecution) {
  TripleStore store = SkewedStore(64);
  PlanPtr p = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("nope")),
                       store);
  // The reorderer may flip the zero-estimate side to the probe side;
  // find the unknown scan wherever it landed.
  const PlanNode* nope = p->children[0]->rel_name == "nope"
                             ? p->children[0].get()
                             : p->children[1].get();
  ASSERT_EQ(nope->rel_name, "nope") << Explain(*p);
  EXPECT_EQ(nope->est_rows, 0);
  auto r = ExecutePlan(*p, store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// Two Zipf-skewed 2500-triple relations plus a 24-triple one: the DP
// reorderer must pull the tiny relation out of last place.
TripleStore MultiJoinStore() {
  RandomStoreOptions opts;
  opts.num_objects = 200;
  opts.num_triples = 2500;
  opts.num_relations = 2;  // "E", "E1": the big sides
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

TEST(PlannerGolden, DpReordersZipfMultiJoinTinyFirst) {
  TripleStore store = MultiJoinStore();
  // Written order joins the two big relations first — a ~|E|·|E1|/d
  // intermediate — and only then the 24-triple relation.  The DP must
  // flip that: joining "tiny" into one big side first keeps every
  // intermediate near |tiny|-scale.
  ExprPtr e = CompositionJoin(
      CompositionJoin(Expr::Rel("E"), Expr::Rel("E1")), Expr::Rel("tiny"));
  PlanPtr p = PlanExpr(e, store);
  ASSERT_EQ(p->children.size(), 2u) << Explain(*p);
  EXPECT_NE(p->children[0]->rel_name, "tiny") << Explain(*p);
  EXPECT_NE(p->children[1]->rel_name, "tiny") << Explain(*p);
  bool tiny_inner = false;
  for (const PlanPtr& c : p->children) {
    for (const PlanPtr& g : c->children) {
      tiny_inner = tiny_inner || g->rel_name == "tiny";
    }
  }
  EXPECT_TRUE(tiny_inner) << "tiny not joined first:\n" << Explain(*p);
  // The root estimate reflects the reordered intermediates, and the
  // chosen order computes the same result as the written one.
  auto naive = MakeNaiveEvaluator()->Eval(e, store);
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(naive.ok() && r.ok());
  EXPECT_EQ(*naive, *r) << Explain(*p);
}

TEST(PlannerGolden, ComplementCostFlowsIntoJoinRegions) {
  // ROADMAP once claimed the cost model lacked U/complement handling;
  // the U − e containment estimate below shows otherwise, and this
  // golden pins the complement estimate *inside* a join region: the
  // reorderer lowers the complement as a region leaf and costs the
  // join on the difference, not the |U| = n³ upper bound.
  TripleStore store = SkewedStore(512);
  double n = static_cast<double>(store.NumObjects());
  double e_rows = static_cast<double>(store.FindRelation("E")->size());
  ExprPtr e = CompositionJoin(
      Expr::Rel("E"), Expr::Diff(Expr::Universe(), Expr::Rel("E")));
  PlanPtr p = PlanExpr(e, store);
  const PlanNode* comp = p->children[0]->op == PlanOp::kMinusOp
                             ? p->children[0].get()
                             : p->children[1].get();
  ASSERT_EQ(comp->op, PlanOp::kMinusOp) << Explain(*p);
  EXPECT_DOUBLE_EQ(comp->est_rows, n * n * n - e_rows) << Explain(*p);
  // Join selectivity applies on top of the containment estimate: the
  // root must undercut the raw cross size by at least the key shrink.
  EXPECT_LT(p->est_rows, e_rows * comp->est_rows / n * 2) << Explain(*p);
  EXPECT_GT(p->est_rows, 0) << Explain(*p);
}

// ---- estimation quality ------------------------------------------------

// Aggregated per-column projections (distinct counts + top-k frequent
// values) bound the q-error of equi-join estimates when *both* key
// columns are skewed.  A predicate–predicate join on these Zipf-1.3
// stores produces 820k–884k rows; the independence heuristic
// nl·nr/max(dl,dr) assumes uniform frequencies and predicts ~40k
// (q-error 20–22), while the head×head exact products land at q ≈ 2.1
// — the residue is output deduplication, which the pair-count
// estimator deliberately ignores.
TEST(PlannerEstimates, EquiJoinQErrorBoundedOnZipfStores) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    TripleStore store = SkewedStore(4096, seed);
    ExprPtr e = Expr::Join(
        Expr::Rel("E"), Expr::Rel("E"),
        Spec(Pos::P1, Pos::P3, Pos::P3p, {Eq(Pos::P2, Pos::P2p)}));
    PlanPtr p = PlanExpr(e, store);
    auto r = ExecutePlan(*p, store);
    ASSERT_TRUE(r.ok());
    double actual = static_cast<double>(r->size());
    ASSERT_GT(actual, 0);
    double q = std::max(p->est_rows / actual, actual / p->est_rows);
    EXPECT_LE(q, 2.5) << "seed " << seed << " est " << p->est_rows
                      << " actual " << actual << "\n" << Explain(*p);
    // The uniform-frequency estimate is off by an order of magnitude.
    const TripleSetStats* st = store.FindRelation("E")->CachedStats();
    double nn = static_cast<double>(st->num_triples);
    double indep = nn * nn / static_cast<double>(st->distinct[1]);
    EXPECT_GT(actual / indep, 10.0);
  }
}

// Constant selections on a stored relation are priced from what the
// relation already holds.  A snapshot-opened store has its persisted
// aggregated stats but no decoded permutation: a heavy hitter gets its
// exact top-k count and any other value the tail average.  Once the
// POS permutation is ready (in memory, or after the first execution
// decoded it), every value gets its exact range size.
ExprPtr PredSelect(ObjId p) {
  return Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, p)}));
}

TEST(PlannerEstimates, ConstantSelectionsUseTopKThenExactRanges) {
  TripleStore store = SkewedStore(4096);  // warm: every permutation built
  const TripleSet& mem = *store.FindRelation("E");
  std::string path = testing::TempDir() + "/plan_const_select.trial";
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const TripleSet& rel = *opened->FindRelation("E");
  const TripleSetStats* st = rel.CachedStats();
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->HasAgg(1));
  ASSERT_FALSE(rel.IndexReady(IndexOrder::kPOS));

  // Predicates by frequency, ordered like the top-k lists (count
  // descending, then value ascending); entry k is the tail's heaviest.
  std::map<ObjId, size_t> freq;
  for (const Triple& t : mem.triples()) ++freq[t.p];
  std::vector<std::pair<size_t, ObjId>> ranked;
  for (const auto& [p, n] : freq) ranked.push_back({n, p});
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const size_t k = st->topk[1].size();
  ASSERT_GT(ranked.size(), k + 1);

  // Heavy hitter: its exact persisted count.
  const ValueFreq& top = st->topk[1].front();
  EXPECT_EQ(top.value, ranked[0].second);
  PlanPtr heavy = PlanExpr(PredSelect(top.value), *opened);
  EXPECT_DOUBLE_EQ(heavy->est_rows, static_cast<double>(top.count));
  EXPECT_EQ(mem.Lookup(1, top.value).size(), top.count);

  // Tail value: (n - sum of top-k counts) / (d - k).
  double head = 0;
  for (const ValueFreq& f : st->topk[1]) head += static_cast<double>(f.count);
  const double tail_avg = (static_cast<double>(st->num_triples) - head) /
                          static_cast<double>(st->distinct[1] - k);
  const ObjId tail_value = ranked[k].second;
  const double tail_rows = static_cast<double>(ranked[k].first);
  PlanPtr tail = PlanExpr(PredSelect(tail_value), *opened);
  EXPECT_DOUBLE_EQ(tail->est_rows, tail_avg);
  // The tail's heaviest value (13 rows against a 2.19 average) is the
  // tail average's worst underestimate; pinned so an estimator change
  // shows up here.
  EXPECT_NEAR(QError(tail->est_rows, tail_rows), 5.946, 0.01)
      << "est " << tail->est_rows << " actual " << tail_rows;
  EXPECT_EQ(SnapshotDecodeCount(*opened), 0u) << "planning decoded triples";

  // POS ready in memory: the exact range size, head or tail.
  PlanPtr exact = PlanExpr(PredSelect(tail_value), store);
  EXPECT_DOUBLE_EQ(exact->est_rows, tail_rows);
  // ... and on the opened store once an execution decoded POS.
  auto r = ExecutePlan(*tail, *opened);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<double>(r->size()), tail_rows);
  ASSERT_TRUE(rel.IndexReady(IndexOrder::kPOS));
  PlanPtr decoded = PlanExpr(PredSelect(tail_value), *opened);
  EXPECT_DOUBLE_EQ(decoded->est_rows, tail_rows);
  EXPECT_DOUBLE_EQ(QError(decoded->est_rows, tail_rows), 1.0);
  std::remove(path.c_str());
}

// ---- explain rendering -------------------------------------------------

// A write keeps the relation's cached stats: an append to a 10^4-row
// relation lands in its delta, and a selection on the appended subject
// is still planned from those stats — the tail average over the exact
// new counts — rather than from the no-stats heuristic.
TEST(PlannerEstimates, AppendKeepsCachedStatsForPlanning) {
  TripleStore store = SkewedStore(10000);
  const RelId e = store.AddRelation("E");
  const TripleSet& rel = store.Relation(e);
  const TripleSetStats before = rel.Stats();
  const ObjId s = store.InternObject("appended_subject");
  const ObjId p = rel.triples().front().p;
  store.BulkAppend(e, {Triple{s, p, store.InternObject("appended_o1")},
                       Triple{s, p, store.InternObject("appended_o2")}});
  ExprPtr sel = Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P1, s)}));
  PlanPtr plan = PlanExpr(sel, store);
  EXPECT_FALSE(rel.IndexReady(IndexOrder::kSPO));  // a delta is pending
  const TripleSetStats* st = rel.CachedStats();
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->num_triples, before.num_triples + 2);
  EXPECT_EQ(st->distinct[0], before.distinct[0] + 1);  // SPO was built
  ASSERT_TRUE(st->HasAgg(0));
  double head = 0;
  for (const ValueFreq& f : st->topk[0]) head += static_cast<double>(f.count);
  const double tail_avg =
      (static_cast<double>(st->num_triples) - head) /
      static_cast<double>(st->distinct[0] - st->topk[0].size());
  EXPECT_DOUBLE_EQ(plan->est_rows, tail_avg) << Explain(*plan);
  auto r = ExecutePlan(*plan, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

// A bare scan of a stored relation returns the relation itself: the
// result shares the store's block, so no triple is copied — with a
// write pending in the delta and after a write past the compaction
// point alike.
TEST(PlanExec, BareScanSharesTheStoreRelation) {
  TripleStore store = SkewedStore(4096);
  const RelId e = store.AddRelation("E");
  const TripleSet& rel = store.Relation(e);
  auto scan = [&] {
    PlanPtr p = PlanExpr(Expr::Rel("E"), store);
    return ExecutePlan(*p, store);
  };
  const ObjId s = store.InternObject("appended_subject");
  store.BulkAppend(e, {Triple{s, s, s}});
  auto pending = scan();
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  EXPECT_FALSE(rel.IndexReady(IndexOrder::kSPO));  // a delta is pending
  EXPECT_EQ(pending->triples().data(), rel.triples().data());
  EXPECT_EQ(pending->size(), rel.size());

  std::vector<Triple> big;
  for (ObjId i = 0; i < 600; ++i) big.push_back(Triple{s, i, s});
  store.BulkAppend(e, std::move(big));
  auto compacted = scan();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_TRUE(rel.IndexReady(IndexOrder::kSPO));  // one body again
  EXPECT_EQ(compacted->triples().data(), rel.triples().data());
  EXPECT_EQ(compacted->size(), rel.size());
}

TEST(ExplainRender, ShowsEstimatedThenActualRows) {
  TripleStore store = SkewedStore(512);
  ExprPtr e = CompositionJoin(Expr::Rel("E"), Expr::Rel("E"));
  PlanPtr p = PlanExpr(e, store);
  std::string before = Explain(*p);
  EXPECT_NE(before.find("MergeJoin"), std::string::npos) << before;
  EXPECT_NE(before.find("via="), std::string::npos) << before;
  EXPECT_NE(before.find("est="), std::string::npos);
  EXPECT_NE(before.find("actual=-"), std::string::npos);

  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok());
  // An unread root renders "actual=?" — counting it would force the
  // result's normalization, which is the consumer's call to make.
  EXPECT_NE(Explain(*p).find("actual=?"), std::string::npos) << Explain(*p);
  RecordRootRows(*p, *r);
  std::string after = Explain(*p);
  EXPECT_EQ(after.find("actual=-"), std::string::npos) << after;
  EXPECT_EQ(after.find("actual=?"), std::string::npos) << after;
  char want[64];
  std::snprintf(want, sizeof want, "actual=%zu", r->size());
  EXPECT_NE(after.find(want), std::string::npos) << after;
  EXPECT_NE(after.find("(merge)"), std::string::npos) << after;
  // Children render indented under the join.
  EXPECT_NE(after.find("\n  IndexScan E"), std::string::npos) << after;
}

TEST(ExplainRender, FixpointRoundsAreReported) {
  TripleStore store = SkewedStore(256);
  PlanPtr p = PlanExpr(
      Expr::StarRight(Expr::Rel("E"),
                      Spec(Pos::P1, Pos::P2p, Pos::P3p,
                           {Eq(Pos::P3, Pos::P1p)})),
      store);
  ASSERT_TRUE(ExecutePlan(*p, store).ok());
  EXPECT_GE(p->runtime.rounds, 1u);
  EXPECT_EQ(p->runtime.rounds,
            p->runtime.probe_rounds + p->runtime.hash_rounds);
  EXPECT_NE(Explain(*p).find("rounds="), std::string::npos) << Explain(*p);
}

// ---- shared primitives -------------------------------------------------

TEST(MirrorSpecTest, SwapsTheJoinInputs) {
  TripleStore store = SkewedStore(256);
  const JoinSpec spec = Spec(Pos::P1, Pos::P3p, Pos::P2,
                             {Eq(Pos::P3, Pos::P1p), Neq(Pos::P2, Pos::P2p),
                              EqConst(Pos::P2p, 0)},
                             {DataEq(Pos::P1, Pos::P3p)});
  const JoinSpec m = MirrorSpec(spec);
  EXPECT_EQ(MirrorSpec(m), spec);
  const TripleSet& e = *store.FindRelation("E");
  size_t held = 0;
  for (const Triple& l : e) {
    for (const Triple& r : e.Lookup(0, l.o)) {
      ASSERT_EQ(spec.cond.Holds(l, r, store), m.cond.Holds(r, l, store));
      held += spec.cond.Holds(l, r, store);
      EXPECT_EQ(spec.Output(l, r), m.Output(r, l));
    }
  }
  EXPECT_GT(held, 0u);
}

TEST(CostRule, PreferIndexProbeCrossover) {
  // Tiny probe side vs large build: probe.  Equal sides at scale: hash.
  EXPECT_TRUE(PreferIndexProbe(4, 100000));
  EXPECT_FALSE(PreferIndexProbe(100000, 100000));
}

// ---- execution equivalence (property tests through the plan executor) --

ExprPtr RandomExpr(Rng* rng, int depth, bool allow_star) {
  auto rand_pos = [&] { return static_cast<Pos>(rng->Below(6)); };
  auto rand_spec = [&] {
    JoinSpec spec;
    spec.out = {rand_pos(), rand_pos(), rand_pos()};
    for (size_t i = 0, n = rng->Below(3); i < n; ++i) {
      spec.cond.theta.push_back(ObjConstraint{
          ObjTerm::P(rand_pos()), ObjTerm::P(rand_pos()), rng->Chance(3, 4)});
    }
    if (rng->Chance(1, 3)) {
      spec.cond.eta.push_back(DataConstraint{
          DataTerm::P(rand_pos()), DataTerm::P(rand_pos()),
          rng->Chance(2, 3)});
    }
    return spec;
  };
  if (depth <= 0) return Expr::Rel("E");
  switch (rng->Below(allow_star ? 7 : 5)) {
    case 0:
      return Expr::Rel("E");
    case 1: {
      CondSet cond;
      cond.theta.push_back(ObjConstraint{
          ObjTerm::P(static_cast<Pos>(rng->Below(3))),
          ObjTerm::C(static_cast<ObjId>(rng->Below(8))), rng->Chance(2, 3)});
      return Expr::Select(RandomExpr(rng, depth - 1, allow_star), cond);
    }
    case 2:
      return Expr::Union(RandomExpr(rng, depth - 1, allow_star),
                         RandomExpr(rng, depth - 1, allow_star));
    case 3:
      return Expr::Diff(RandomExpr(rng, depth - 1, allow_star),
                        RandomExpr(rng, depth - 1, allow_star));
    case 4:
      return Expr::Join(RandomExpr(rng, depth - 1, allow_star),
                        RandomExpr(rng, depth - 1, allow_star), rand_spec());
    case 5:
      return Expr::StarRight(RandomExpr(rng, depth - 1, false), rand_spec());
    default:
      return Expr::StarLeft(RandomExpr(rng, depth - 1, false), rand_spec());
  }
}

// Plan execution must equal the smart engine, and record its root rows.
TEST(PlanExecEquivalence, MatchesSmartEngineOnZipfStores) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 271 + 9);
    RandomStoreOptions opts;
    opts.num_objects = 12;
    opts.num_triples = 60;
    opts.num_data_values = 3;
    opts.zipf_p = 1.2;
    opts.zipf_o = 0.8;
    opts.seed = seed * 23 + 1;
    TripleStore store = RandomTripleStore(opts);
    auto serial = MakeSmartEvaluator();
    for (int i = 0; i < 8; ++i) {
      ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
      auto r0 = serial->Eval(e, store);
      ASSERT_TRUE(r0.ok()) << r0.status().ToString() << "\n" << e->ToString();
      PlanPtr p = PlanExpr(e, store);
      auto r = ExecutePlan(*p, store);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(*r0, *r) << e->ToString() << "\n" << Explain(*p);
      RecordRootRows(*p, *r);
      EXPECT_EQ(p->runtime.actual_rows, r->size());
    }
  }
}

// Result identity of the reordered + merge plans: random 3–5-relation
// join expressions over Zipf stores must match the naive evaluator.
// This is the reorderer's contract test — bushy
// orders, spanning key atoms, predicate placement and the merge kernel
// all have to agree with the written order's semantics.
TEST(PlanExecEquivalence, ReorderedMultiJoinsMatchNaive) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 131 + 7);
    RandomStoreOptions opts;
    opts.num_objects = 10;
    opts.num_triples = 40;
    opts.num_relations = 5;  // "E", "E1".."E4"
    opts.num_data_values = 3;
    opts.zipf_p = 1.2;
    opts.zipf_o = 0.8;
    opts.seed = seed * 37 + 5;
    TripleStore store = RandomTripleStore(opts);
    auto rel_name = [&](size_t i) {
      return i == 0 ? std::string("E") : "E" + std::to_string(i);
    };
    auto rand_pos = [&] { return static_cast<Pos>(rng.Below(6)); };
    auto rand_spec = [&] {
      JoinSpec spec;
      spec.out = {rand_pos(), rand_pos(), rand_pos()};
      // At least one join atom, biased towards cross equalities so the
      // flattener's class merging really engages.
      for (size_t i = 0, n = 1 + rng.Below(2); i < n; ++i) {
        spec.cond.theta.push_back(ObjConstraint{
            ObjTerm::P(rand_pos()), ObjTerm::P(rand_pos()),
            rng.Chance(7, 8)});
      }
      if (rng.Chance(1, 4)) {
        spec.cond.theta.push_back(
            ObjConstraint{ObjTerm::P(rand_pos()),
                          ObjTerm::C(static_cast<ObjId>(rng.Below(6))),
                          rng.Chance(2, 3)});
      }
      return spec;
    };
    auto naive = MakeNaiveEvaluator();
    for (int i = 0; i < 6; ++i) {
      // A random-shaped join tree over 3–5 relation leaves.
      size_t leaves = 3 + rng.Below(3);
      std::vector<ExprPtr> nodes;
      for (size_t l = 0; l < leaves; ++l) {
        nodes.push_back(Expr::Rel(rel_name(rng.Below(5))));
      }
      while (nodes.size() > 1) {
        size_t a = rng.Below(nodes.size());
        std::swap(nodes[a], nodes.back());
        ExprPtr r = std::move(nodes.back());
        nodes.pop_back();
        size_t b = rng.Below(nodes.size());
        nodes[b] = Expr::Join(std::move(nodes[b]), std::move(r), rand_spec());
      }
      ExprPtr e = std::move(nodes[0]);
      auto r0 = naive->Eval(e, store);
      ASSERT_TRUE(r0.ok()) << r0.status().ToString() << "\n" << e->ToString();
      PlanPtr p = PlanExpr(e, store);
      auto r = ExecutePlan(*p, store);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(*r0, *r) << e->ToString() << "\n" << Explain(*p);
    }
  }
}

// The smart engine's one-entry plan memo: re-evaluating the same
// expression reuses the plan; switching the expression, the store, or
// mutating the store's contents must all produce the same results as a
// fresh engine (plans resolve relations and cost decisions at
// execution time, so a cached plan never goes semantically stale).
TEST(SmartEngineMemo, RepeatedAndSwitchedEvalsMatchFreshEngines) {
  TripleStore a = SkewedStore(256, 5);
  TripleStore b = SkewedStore(256, 9);
  ExprPtr e = CompositionJoin(Expr::Rel("E"), Expr::Rel("E"));
  ExprPtr e2 = Expr::Union(Expr::Rel("E"), Expr::Rel("E"));
  auto fresh = [](const ExprPtr& x, const TripleStore& s) {
    auto r = MakeSmartEvaluator()->Eval(x, s);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  };
  auto engine = MakeSmartEvaluator();
  auto r1 = engine->Eval(e, a);   // memo miss
  auto r1b = engine->Eval(e, a);  // memo hit
  ASSERT_TRUE(r1.ok() && r1b.ok());
  EXPECT_EQ(*r1, *r1b);
  EXPECT_EQ(*r1, fresh(e, a));
  auto r2 = engine->Eval(e, b);  // store switch invalidates
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, fresh(e, b));
  auto r3 = engine->Eval(e2, a);  // expression switch invalidates
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, fresh(e2, a));
  // Mutating the store must be visible through a reused plan: the
  // executor re-reads relations by name at execution time.
  a.Add("E", "memo_s", "memo_p", "memo_o");
  auto r4a = engine->Eval(e, a);  // re-keys to (e, a): plan reused later
  auto r4b = engine->Eval(e, a);
  ASSERT_TRUE(r4a.ok() && r4b.ok());
  EXPECT_EQ(*r4a, fresh(e, a));
  EXPECT_EQ(*r4a, *r4b);
}

// ---- shared subexpressions -------------------------------------------

// Pre-order walk: each shared id has one sub-plan, which comes before
// (and so runs before) every SharedScan of that id.  Returns the number
// of SharedScan leaves.
size_t CheckSharedOrder(const PlanNode& n, std::set<int>* placed) {
  size_t scans = 0;
  if (n.op == PlanOp::kSharedScan) {
    EXPECT_EQ(placed->count(n.share_id), 1u) << "#" << n.share_id;
    ++scans;
  } else if (n.share_id >= 0) {
    EXPECT_TRUE(placed->insert(n.share_id).second) << "#" << n.share_id;
  }
  for (const PlanPtr& c : n.children) scans += CheckSharedOrder(*c, placed);
  return scans;
}

ExprPtr RandomCombine(Rng* rng, ExprPtr a, ExprPtr b) {
  switch (rng->Below(3)) {
    case 0:
      return Expr::Union(std::move(a), std::move(b));
    case 1:
      return Expr::Diff(std::move(a), std::move(b));
    default:
      return CompositionJoin(std::move(a), std::move(b));
  }
}

// Expressions that reuse subexpressions (DAGs) plan each shared node
// once and match the naive evaluator, which unfolds them.
TEST(SharedSubplans, DagsMatchNaive) {
  auto naive = MakeNaiveEvaluator();
  size_t shared_plans = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 97 + 3);
    RandomStoreOptions opts;
    opts.num_objects = 12;
    opts.num_triples = 60;
    opts.num_data_values = 3;
    opts.zipf_p = 1.2;
    opts.zipf_o = 0.8;
    opts.seed = seed * 41 + 7;
    TripleStore store = RandomTripleStore(opts);
    for (int i = 0; i < 8; ++i) {
      ExprPtr s = RandomExpr(&rng, 2, /*allow_star=*/true);
      ExprPtr t = RandomCombine(&rng, s, RandomExpr(&rng, 1, true));
      ExprPtr e = RandomCombine(&rng, RandomCombine(&rng, s, t),
                                RandomCombine(&rng, t, s));
      auto want = naive->Eval(e, store);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      PlanPtr p = PlanExpr(e, store);
      std::set<int> placed;
      const size_t scans = CheckSharedOrder(*p, &placed);
      EXPECT_GE(scans, placed.size()) << Explain(*p);
      shared_plans += placed.size();
      auto r = ExecutePlan(*p, store);
      ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << Explain(*p);
      EXPECT_EQ(*want, *r) << e->ToString() << "\n" << Explain(*p);
    }
  }
  EXPECT_GT(shared_plans, 0u);
}

// A chain in which each level joins the previous one with itself
// unfolds to 2^30 leaves; its plan has one node per level, and it runs
// (plainly, profiled and adaptively) in linear time.
TEST(SharedSubplans, ChainedReusePlansOneNodePerLevel) {
  // A 7-cycle with two labels: every level keeps 14 triples.
  TripleStore store;
  for (int i = 0; i < 7; ++i) {
    for (const char* label : {"a", "b"}) {
      store.Add("E", "n" + std::to_string(i), label,
                "n" + std::to_string((i + 1) % 7));
    }
  }
  auto naive = MakeNaiveEvaluator();
  ExprPtr e = Expr::Rel("E");
  for (int level = 0; level < 30; ++level) {
    e = CompositionJoin(e, e);
    if (level == 3) {
      // Small enough to unfold: the plan agrees with the naive engine.
      PlanPtr p = PlanExpr(e, store);
      auto r = ExecutePlan(*p, store);
      auto want = naive->Eval(e, store);
      ASSERT_TRUE(r.ok() && want.ok());
      EXPECT_EQ(*r, *want) << Explain(*p);
    }
  }
  PlanPtr p = PlanExpr(e, store);
  EXPECT_LT(p->TreeSize(), 3u * 30);
  std::set<int> placed;
  EXPECT_EQ(CheckSharedOrder(*p, &placed), 29u);
  const std::string text = Explain(*p);
  EXPECT_NE(text.find("shared=#"), std::string::npos) << text;
  EXPECT_NE(text.find("SharedScan #"), std::string::npos) << text;
  auto plain = ExecutePlan(*p, store);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto profiled = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_EQ(*plain, *profiled);
  FeedbackCache fb;
  for (int pass = 0; pass < 2; ++pass) {
    auto adaptive = ExecuteAdaptive(e, store, {}, false, nullptr, &fb);
    ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
    EXPECT_EQ(*adaptive, *plain);
  }
}

// A difference never skips a right side that holds a shared sub-plan:
// here the first use of σ[2=0](E) in execution order is the right side
// of a difference whose tiny left would otherwise anti-probe it, and
// the union's SharedScan reads the kept result afterwards.  Built from
// two separate copies of the selection, the same query anti-probes.
TEST(SharedSubplans, DifferenceRunsAShareHeldOnItsRight) {
  TripleStore store = SkewedStore(4096);
  const ExprPtr left =
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P1, 3)}));
  auto hot = [] {
    return Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, 0)}));
  };
  const ExprPtr s = hot();
  const ExprPtr shared = Expr::Union(Expr::Diff(left, s), s);
  const ExprPtr copies = Expr::Union(Expr::Diff(left, hot()), hot());
  auto want = MakeNaiveEvaluator()->Eval(shared, store);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (const ExprPtr& e : {shared, copies}) {
    const bool is_shared = e == shared;
    PlanPtr p = PlanExpr(e, store);
    ASSERT_EQ(p->op, PlanOp::kUnionOp);
    const PlanNode& diff = *p->children[0];
    ASSERT_EQ(diff.op, PlanOp::kMinusOp) << Explain(*p);
    EXPECT_EQ(diff.children[1]->share_id >= 0, is_shared) << Explain(*p);
    EXPECT_EQ(p->children[1]->op == PlanOp::kSharedScan, is_shared);
    auto r = ExecutePlan(*p, store);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << Explain(*p);
    EXPECT_EQ(*want, *r) << Explain(*p);
    EXPECT_STREQ(diff.runtime.strategy, is_shared ? "merge" : "anti-probe")
        << Explain(*p);
  }
}

// The result-size guard fires identically through the plan executor.
TEST(PlanExecGuards, UniverseGuard) {
  RandomStoreOptions opts;
  opts.num_objects = 600;
  opts.num_triples = 2000;
  TripleStore store = RandomTripleStore(opts);
  ExecLimits limits;
  limits.max_result_triples = 1'000'000;  // 600^3 >> guard
  PlanPtr p = PlanExpr(Expr::Universe(), store);
  auto r = ExecutePlan(*p, store, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// Runs `p` twice: unguarded, then with max_result_triples one below
// that result's size.  The root operator emits at least as many rows as
// the result holds, so its own guard must trip.
void ExpectGuardTrips(const TripleStore& store, PlanNode* p) {
  auto full = ExecutePlan(*p, store);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!full.ok()) return;
  EXPECT_GT(full->size(), 1u) << Explain(*p);
  ExecLimits limits;
  limits.max_result_triples = full->size() - 1;
  auto r = ExecutePlan(*p, store, limits);
  EXPECT_FALSE(r.ok()) << Explain(*p);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

// Plans `e`, checks its root is `op` and that its guard trips (no other
// operator in these plans checks the guard).  Returns the guarded run's
// root for the caller's strategy checks.
PlanPtr ExpectRootGuardTrips(const TripleStore& store, const ExprPtr& e,
                             PlanOp op) {
  PlanPtr p = PlanExpr(e, store);
  EXPECT_EQ(p->op, op) << Explain(*p);
  ExpectGuardTrips(store, p.get());
  return p;
}

TEST(PlanExecGuards, ProbeJoinGuard) {
  TripleStore store = SkewedStore(4096);
  PlanPtr p = ExpectRootGuardTrips(
      store,
      CompositionJoin(
          Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P3, 3)})),
          Expr::Rel("E")),
      PlanOp::kIndexProbeJoin);
  EXPECT_STREQ(p->runtime.strategy, "probe") << Explain(*p);
}

TEST(PlanExecGuards, HashJoinGuard) {
  // A data-value key has no index to probe or merge on.
  TripleStore store = SkewedStore(256);
  PlanPtr p = ExpectRootGuardTrips(
      store,
      Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                 Spec(Pos::P1, Pos::P2, Pos::P3p, {},
                      {DataEq(Pos::P3, Pos::P1p)})),
      PlanOp::kHashJoin);
  EXPECT_STREQ(p->runtime.strategy, "hash") << Explain(*p);
}

TEST(PlanExecGuards, MergeJoinGuard) {
  TripleStore store = SkewedStore(4096);
  PlanPtr p = ExpectRootGuardTrips(
      store, CompositionJoin(Expr::Rel("E"), Expr::Rel("E")),
      PlanOp::kMergeJoin);
  EXPECT_STREQ(p->runtime.strategy, "merge") << Explain(*p);
}

// The galloping merge trips the guard from its sparse side too: a
// p-pinned selection a small share of E's size gallops into E's SPO
// run, and its output still counts row by row.
TEST(PlanExecGuards, SparseMergeJoinGuard) {
  TripleStore store = SkewedStore(4096);
  const TripleSet& e = *store.FindRelation("E");
  std::map<ObjId, size_t> freq;
  for (const Triple& t : e) ++freq[t.p];
  ExprPtr pick;
  for (const auto& [pred, n] : freq) {
    if (n < 4 || n * 32 > e.size()) continue;
    ExprPtr cand = CompositionJoin(
        Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, pred)})),
        Expr::Rel("E"));
    auto r = MakeNaiveEvaluator()->Eval(cand, store);
    ASSERT_TRUE(r.ok());
    if (r->size() >= 2) {
      pick = cand;
      break;
    }
  }
  ASSERT_NE(pick, nullptr) << "no sparse predicate with a 2-row join";
  PlanPtr p = ExpectRootGuardTrips(store, pick, PlanOp::kMergeJoin);
  EXPECT_STREQ(p->runtime.strategy, "merge") << Explain(*p);
  EXPECT_EQ(p->merge_lcol, 2) << Explain(*p);
  EXPECT_LT(p->children[0]->runtime.actual_rows * 32,
            p->children[1]->runtime.actual_rows)
      << Explain(*p);
}

TEST(PlanExecGuards, FixpointStarGuard) {
  // Not a walk: the output takes the right side's predicate, so the
  // star stays a semi-naive fixpoint.
  TripleStore store = SkewedStore(256);
  ExpectRootGuardTrips(
      store,
      Expr::StarRight(Expr::Rel("E"), Spec(Pos::P1, Pos::P2p, Pos::P3p,
                                           {Eq(Pos::P3, Pos::P1p)})),
      PlanOp::kFixpointStar);
}

// A general fixpoint, as Datalog's general recursion reaches the
// planner: E's triples, extended along E's edges in both directions
// (s(X, Y, W) :- s(X, Y, Z), E(Z, P, W) and :- s(X, Y, Z), E(W, P, Z)).
struct BothWays {
  std::vector<FixpointDef> defs;
  ExprPtr self;

  BothWays() {
    FixpointDef d;
    d.self = Expr::Rel("s");
    d.acc = Expr::Rel("s");
    d.delta = Expr::Rel("delta:s");
    d.seed = Expr::Rel("E");
    d.step = Expr::Union(
        Expr::Join(d.delta, Expr::Rel("E"),
                   Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)})),
        Expr::Join(d.delta, Expr::Rel("E"),
                   Spec(Pos::P1, Pos::P2, Pos::P1p, {Eq(Pos::P3, Pos::P3p)})));
    self = d.self;
    defs.push_back(std::move(d));
  }

  PlanPtr Plan(const TripleStore& store) const {
    PlanningHints hints;
    hints.fixpoints = &defs;
    return PlanExpr(self, store, hints);
  }
};

TEST(PlanExecGuards, GeneralFixpointGuard) {
  TripleStore store = SkewedStore(64);
  PlanPtr p = BothWays().Plan(store);
  ASSERT_EQ(p->op, PlanOp::kFixpointStar) << Explain(*p);
  EXPECT_EQ(p->rel_name, "s");
  ExpectGuardTrips(store, p.get());
}

TEST(PlanExecGuards, GeneralFixpointRoundLimit) {
  TripleStore store = SkewedStore(64);
  PlanPtr p = BothWays().Plan(store);
  auto full = ExecutePlan(*p, store);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const size_t rounds = p->runtime.rounds;
  ASSERT_GE(rounds, 2u) << Explain(*p);
  EXPECT_NE(Explain(*p).find("FixpointStar s"), std::string::npos)
      << Explain(*p);
  ExecLimits limits;
  limits.max_rounds = rounds - 1;
  auto r = ExecutePlan(*p, store, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  limits.max_rounds = rounds;
  auto again = ExecutePlan(*p, store, limits);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *full);
}

// Joins with a complement input anti-probe on either side and keep to
// U: a constant that occurs in no triple pins no candidate.
TEST(ComplementJoin, MatchesNaive) {
  TripleStore store = SkewedStore(48);
  const ObjId lonely = store.InternObject("lonely");
  ExprPtr u_minus_e = Expr::Complement(Expr::Rel("E"));
  const ExprPtr cases[] = {
      Expr::Join(Expr::Rel("E"), u_minus_e,
                 Spec(Pos::P1, Pos::P2, Pos::P3p,
                      {Eq(Pos::P3, Pos::P1p), Eq(Pos::P2, Pos::P2p)})),
      Expr::Join(u_minus_e, Expr::Rel("E"),
                 Spec(Pos::P1, Pos::P2p, Pos::P3p,
                      {Eq(Pos::P3, Pos::P1p), Eq(Pos::P1, Pos::P2p)})),
      Expr::Join(Expr::Rel("E"), u_minus_e,
                 Spec(Pos::P1, Pos::P2, Pos::P3p,
                      {Eq(Pos::P3, Pos::P1p), EqConst(Pos::P2p, lonely)})),
      Expr::Join(Expr::Rel("E"), u_minus_e,
                 Spec(Pos::P1, Pos::P2p, Pos::P3p,
                      {Eq(Pos::P3, Pos::P1p), Eq(Pos::P1p, Pos::P3p),
                       Neq(Pos::P2, Pos::P2p)})),
  };
  for (const ExprPtr& e : cases) {
    auto want = MakeNaiveEvaluator()->Eval(e, store);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    PlanPtr p = PlanExpr(e, store);
    auto got = ExecutePlan(*p, store);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *want) << e->ToString() << "\n" << Explain(*p);
    EXPECT_STREQ(p->runtime.strategy, "anti-probe") << Explain(*p);
  }
}

// E ⋈ (U − E): the complement is anti-probed, never materialized.
TEST(PlanExecGuards, ComplementJoinGuard) {
  TripleStore store = SkewedStore(64);
  ExprPtr e = Expr::Join(
      Expr::Rel("E"), Expr::Complement(Expr::Rel("E")),
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p),
                                        Eq(Pos::P2, Pos::P2p)}));
  auto want = MakeNaiveEvaluator()->Eval(e, store);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  PlanPtr p = PlanExpr(e, store);
  auto got = ExecutePlan(*p, store);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want) << Explain(*p);
  ASSERT_STREQ(p->runtime.strategy, "anti-probe") << Explain(*p);
  ExpectGuardTrips(store, p.get());
}

}  // namespace
}  // namespace plan
}  // namespace trial
