// The interval reachability index (core/reach): SCC contraction +
// interval labels answer Reaches like a brute DFS, the column-2 walk is
// byte-identical to Procedure 3 and the naive fixpoint (including
// cyclic SCC-heavy graphs), the index follows the permutation-cache
// lifecycle (shared between copies, invalidated by mutation), the
// planner routes every walk star through ReachIndexScan at every
// thread count, and DijkstraScan answers weighted shortest paths
// deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/fast_reach.h"
#include "core/plan/plan.h"
#include "core/reach/dijkstra.h"
#include "core/reach/graph.h"
#include "core/reach/reach_index.h"
#include "graph/generators.h"
#include "storage/segment/store_snapshot.h"
#include "storage/triple_store.h"
#include "util/rng.h"

namespace trial {
namespace {

using plan::ExecutePlan;
using plan::FixpointDef;
using plan::Explain;
using plan::PlanExpr;
using plan::PlanOp;
using plan::PlanningHints;
using plan::PlanPtr;
using plan::PlanShortestPath;
using reach::DijkstraShortestPath;
using reach::ReachIndex;
using reach::ShortestPathResult;

// Reference reachability: iterative DFS over the projected graph.
std::vector<ObjId> BruteReachable(const TripleSet& base, ObjId src) {
  std::vector<ObjId> stack{src}, out;
  std::vector<ObjId> seen;
  auto mark = [&](ObjId v) {
    if (std::find(seen.begin(), seen.end(), v) != seen.end()) return false;
    seen.push_back(v);
    return true;
  };
  mark(src);
  while (!stack.empty()) {
    ObjId v = stack.back();
    stack.pop_back();
    out.push_back(v);
    for (const Triple& t : base) {
      if (t.s == v && mark(t.o)) stack.push_back(t.o);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A random store with heavy cycles: few objects, many triples, Zipf
// skew so some SCCs are large while pendants stay acyclic.
TripleStore CyclicStore(uint64_t seed, size_t objects = 40,
                        size_t triples = 220) {
  RandomStoreOptions opts;
  opts.num_objects = objects;
  opts.num_triples = triples;
  opts.zipf_p = 1.1;
  opts.zipf_o = 0.7;
  opts.seed = seed;
  return RandomTripleStore(opts);
}

// ---- construction + point queries -------------------------------------

TEST(ReachIndexBuild, ChainCycleAndPendant) {
  // a -> b -> c -> a (one SCC), c -> d -> e (pendant chain), f isolated
  // as a predicate-only id.
  TripleStore store;
  RelId rel = store.AddRelation("E");
  ObjId a = store.InternObject("a"), b = store.InternObject("b");
  ObjId c = store.InternObject("c"), d = store.InternObject("d");
  ObjId e = store.InternObject("e"), p = store.InternObject("p");
  store.Add(rel, a, p, b);
  store.Add(rel, b, p, c);
  store.Add(rel, c, p, a);
  store.Add(rel, c, p, d);
  store.Add(rel, d, p, e);
  const TripleSet& base = *store.FindRelation("E");

  auto idx = ReachIndex::Build(base);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->num_nodes(), 5u);  // a..e; p never appears as s or o
  EXPECT_EQ(idx->num_sccs(), 3u);   // {a,b,c}, {d}, {e}

  // Same-SCC, downstream, reflexive, and negative answers.
  EXPECT_TRUE(idx->Reaches(a, c));
  EXPECT_TRUE(idx->Reaches(c, b));
  EXPECT_TRUE(idx->Reaches(a, e));
  EXPECT_TRUE(idx->Reaches(d, d));
  EXPECT_FALSE(idx->Reaches(e, a));
  EXPECT_FALSE(idx->Reaches(d, a));
  // Ids outside the projected graph reach exactly themselves.
  EXPECT_TRUE(idx->Reaches(p, p));
  EXPECT_FALSE(idx->Reaches(p, a));
  EXPECT_FALSE(idx->Reaches(a, p));
}

// Every (s, t) pair of `store`'s relation E answers like a brute DFS.
void ExpectReachesMatchesBruteDfs(const TripleStore& store) {
  const TripleSet& base = *store.FindRelation("E");
  auto idx = ReachIndex::Build(base);
  for (ObjId s = 0; s < store.NumObjects(); ++s) {
    std::vector<ObjId> want = BruteReachable(base, s);
    for (ObjId t = 0; t < store.NumObjects(); ++t) {
      bool brute = std::binary_search(want.begin(), want.end(), t);
      EXPECT_EQ(idx->Reaches(s, t), brute) << "s=" << s << " t=" << t;
    }
  }
}

TEST(ReachIndexBuild, ReachesMatchesBruteDfs) {
  for (uint64_t seed : {3u, 7u, 19u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectReachesMatchesBruteDfs(CyclicStore(seed));
  }
  // A long chain n0 -> n1 -> ... -> n199: every pid has one successor,
  // so the labeling copies and extends without a sort.
  TripleStore chain;
  RelId rel = chain.AddRelation("E");
  ObjId p = chain.InternObject("p");
  std::vector<ObjId> n;
  for (int i = 0; i < 200; ++i) {
    n.push_back(chain.InternObject("n" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < n.size(); ++i) chain.Add(rel, n[i], p, n[i + 1]);
  {
    SCOPED_TRACE("chain");
    ExpectReachesMatchesBruteDfs(chain);
  }
  // Stacked diamonds a_k -> {b_k, c_k} -> a_{k+1}, with a pendant
  // b_k -> x_k: pids with several successors sort and coalesce
  // overlapping and disjoint interval sets.
  TripleStore diamond;
  rel = diamond.AddRelation("E");
  p = diamond.InternObject("p");
  for (int k = 0; k < 20; ++k) {
    const std::string i = std::to_string(k);
    ObjId a = diamond.InternObject("a" + i);
    ObjId b = diamond.InternObject("b" + i);
    ObjId c = diamond.InternObject("c" + i);
    ObjId d = diamond.InternObject("a" + std::to_string(k + 1));
    diamond.Add(rel, a, p, b);
    diamond.Add(rel, a, p, c);
    diamond.Add(rel, b, p, d);
    diamond.Add(rel, c, p, d);
    diamond.Add(rel, b, p, diamond.InternObject("x" + i));
  }
  {
    SCOPED_TRACE("diamond");
    ExpectReachesMatchesBruteDfs(diamond);
  }
  // r -> {a, c} and b -> a, interned a < b < c < r: Tarjan numbers
  // a, b, c, r as pids 0..3, so I(r) = {[0,0], [2,3]} keeps a one-pid
  // gap at b, which r must not reach.
  TripleStore gap;
  rel = gap.AddRelation("E");
  p = gap.InternObject("p");
  ObjId a = gap.InternObject("a"), b = gap.InternObject("b");
  ObjId c = gap.InternObject("c"), r = gap.InternObject("r");
  gap.Add(rel, b, p, a);
  gap.Add(rel, r, p, a);
  gap.Add(rel, r, p, c);
  {
    SCOPED_TRACE("one-pid gap");
    ExpectReachesMatchesBruteDfs(gap);
  }
}

// ---- star equivalence (the tentpole's correctness pin) ------------

TEST(ReachIndexStar, ByteIdenticalToProcedure3AndNaive) {
  auto naive = MakeNaiveEvaluator();
  ExprPtr star = ReachAnyPath(Expr::Rel("E"));
  for (uint64_t seed : {2u, 9u, 23u}) {
    TripleStore store = CyclicStore(seed);
    const TripleSet& base = *store.FindRelation("E");
    TripleSet procedure3 = StarReachAnyPath(base);
    auto ref = naive->Eval(star, store);
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(procedure3, *ref) << "Procedure 3 vs naive, seed=" << seed;
    auto got = ReachIndex::Build(base)->EmitWalk(base, 2, 50'000'000);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, procedure3) << "seed=" << seed;
  }
}

TEST(ReachIndexStar, OutputBoundAndOverflowGuard) {
  TripleStore store = CyclicStore(4);
  const TripleSet& base = *store.FindRelation("E");
  auto idx = ReachIndex::Build(base);
  TripleSet want = StarReachAnyPath(base);
  // walk_output_rows(2) is an upper bound on the actual star cardinality.
  EXPECT_GE(idx->walk_output_rows(2), want.size());
  auto r = idx->EmitWalk(base, 2, want.size() - 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// ---- cache lifecycle ---------------------------------------------------

TEST(ReachIndexCache, SharedBetweenCopiesAndStore) {
  TripleStore store = CyclicStore(6);
  const TripleSet& rel = *store.FindRelation("E");
  ASSERT_GT(rel.size(), 0u);  // normalize before copying: staged inserts
                              // would detach the copy onto a fresh cell
  EXPECT_EQ(ReachIndex::Cached(rel), nullptr);

  TripleSet copy = rel;  // shares the index-cache cell
  auto built = ReachIndex::GetOrBuild(copy);
  ASSERT_NE(built, nullptr);
  // The store's relation sees the index built through the copy, and
  // GetOrBuild returns the same instance instead of rebuilding.
  EXPECT_EQ(ReachIndex::Cached(rel), built);
  EXPECT_EQ(ReachIndex::GetOrBuild(rel), built);
}

TEST(ReachIndexCache, MutationInvalidates) {
  TripleStore store = CyclicStore(6);
  TripleSet* rel = store.MutableRelation("E");
  auto built = ReachIndex::GetOrBuild(*rel);
  ASSERT_NE(built, nullptr);
  ASSERT_EQ(ReachIndex::Cached(*rel), built);

  // Mutating detaches the set onto a fresh cache cell: the stale index
  // is no longer reachable from the relation.
  rel->Insert(store.InternObject("zz1"), store.InternObject("zzp"),
              store.InternObject("zz2"));
  EXPECT_EQ(ReachIndex::Cached(*rel), nullptr);
  // A rebuild over the mutated set answers for the new triples.
  auto fresh = ReachIndex::GetOrBuild(*rel);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, built);
  EXPECT_TRUE(fresh->Reaches(store.FindObject("zz1"),
                             store.FindObject("zz2")));
}

TEST(ReachIndexCache, AppendRebuildsTheIndexAndExtendsTheWalk) {
  TripleStore store = CyclicStore(3, /*objects=*/40, /*triples=*/200);
  const RelId e = store.AddRelation("E");
  const TripleSet& rel = store.Relation(e);
  const size_t before = rel.size();
  ExprPtr star = ReachAnyPath(Expr::Rel("E"));
  auto old_index = ReachIndex::GetOrBuild(rel);
  ASSERT_NE(old_index, nullptr);
  PlanPtr warm = PlanExpr(star, store);
  ASSERT_EQ(warm->op, PlanOp::kReachIndexScan) << Explain(*warm);
  ASSERT_TRUE(ExecutePlan(*warm, store).ok());

  // An edge out of a reached node to a fresh one extends every path
  // through that node.  It lands in the relation's delta, on a new
  // block without the old index.
  const Triple first = rel.triples().front();
  const ObjId fresh = store.InternObject("appended_node");
  store.BulkAppend(e, {Triple{first.o, first.p, fresh}});
  ASSERT_EQ(rel.size(), before + 1);
  EXPECT_FALSE(rel.IndexReady(IndexOrder::kSPO));  // a delta is pending
  EXPECT_EQ(ReachIndex::Cached(rel), nullptr);

  auto want = MakeNaiveEvaluator()->Eval(star, store);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(want->Contains(Triple{first.s, first.p, fresh}));
  PlanPtr p = PlanExpr(star, store);
  ASSERT_EQ(p->op, PlanOp::kReachIndexScan) << Explain(*p);
  auto got = ExecutePlan(*p, store);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want);
  auto rebuilt = ReachIndex::Cached(rel);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt, old_index);
  EXPECT_TRUE(rebuilt->Reaches(first.s, fresh));
  EXPECT_FALSE(old_index->Reaches(first.s, fresh));
}

// ---- planner routing + plan execution ---------------------------------

TEST(ReachIndexPlan, WarmIndexRoutesToIndexScan) {
  TripleStore store = CyclicStore(8);  // small: no size gate either way
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  ExprPtr star = ReachAnyPath(Expr::Rel("E"));

  PlanPtr cold = PlanExpr(star, store);
  ASSERT_EQ(cold->op, PlanOp::kReachIndexScan) << Explain(*cold);
  EXPECT_EQ(ReachIndex::Cached(*store.FindRelation("E")), nullptr);

  auto idx = ReachIndex::GetOrBuild(*store.FindRelation("E"));
  PlanPtr warm = PlanExpr(star, store);
  ASSERT_EQ(warm->op, PlanOp::kReachIndexScan) << Explain(*warm);
  // The warm plan's estimate is the index's exact output bound.
  EXPECT_DOUBLE_EQ(warm->est_rows,
                   static_cast<double>(idx->walk_output_rows(2)));

  auto r = ExecutePlan(*warm, store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, StarReachAnyPath(*store.FindRelation("E")));
  EXPECT_STREQ(warm->runtime.strategy, "interval-index");
  EXPECT_NE(Explain(*warm).find("ReachIndexScan"), std::string::npos)
      << Explain(*warm);
}

TEST(ReachIndexPlan, ExecutionWarmsTheStoreRelation) {
  // A cold large star executes through ReachIndexScan and leaves the
  // built index attached to the store's relation for later queries.
  RandomStoreOptions opts;
  opts.num_objects = 300;
  opts.num_triples = 4096;
  opts.zipf_p = 1.3;
  opts.zipf_o = 0.8;
  opts.seed = 21;
  TripleStore store = RandomTripleStore(opts);
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);

  PlanPtr p = PlanExpr(ReachAnyPath(Expr::Rel("E")), store);
  ASSERT_EQ(p->op, PlanOp::kReachIndexScan) << Explain(*p);
  ASSERT_EQ(ReachIndex::Cached(*store.FindRelation("E")), nullptr);
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, StarReachAnyPath(*store.FindRelation("E")));
  EXPECT_NE(ReachIndex::Cached(*store.FindRelation("E")), nullptr);
}

TEST(ReachIndexPlan, FixpointStarOnReachSpecMatchesAnyPathKernel) {
  // The generic semi-naive fixpoint over a reach-A spec is
  // byte-identical to Procedure 3.  The planner routes such a star to
  // ReachIndexScan, so the fixpoint is defined by hand.
  TripleStore store = CyclicStore(17);
  auto idx = ReachIndex::GetOrBuild(*store.FindRelation("E"));
  ASSERT_NE(idx, nullptr);
  ExprPtr walk = ReachAnyPath(Expr::Rel("E"));
  std::vector<FixpointDef> defs(1);
  defs[0].self = Expr::Rel("closure");
  defs[0].delta = Expr::Rel("delta");
  defs[0].seed = Expr::Rel("E");
  defs[0].step = Expr::Join(defs[0].delta, defs[0].seed, walk->join_spec());
  PlanningHints hints;
  hints.fixpoints = &defs;
  PlanPtr p = PlanExpr(defs[0].self, store, hints);
  ASSERT_EQ(p->op, PlanOp::kFixpointStar) << Explain(*p);
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, StarReachAnyPath(*store.FindRelation("E")));
}

// ---- weighted shortest paths ------------------------------------------

// city0 -s1-> city1 -s1-> city2, city0 -s2-> city2, with rho(s1) = 1
// and rho(s2) = 5: the two-hop path wins, 2 < 5.
TripleStore WeightedDiamond() {
  TripleStore store;
  RelId rel = store.AddRelation("E");
  ObjId c0 = store.InternObject("city0"), c1 = store.InternObject("city1");
  ObjId c2 = store.InternObject("city2");
  ObjId s1 = store.InternObject("s1"), s2 = store.InternObject("s2");
  store.SetValue(s1, DataValue::Int(1));
  store.SetValue(s2, DataValue::Int(5));
  store.Add(rel, c0, s1, c1);
  store.Add(rel, c1, s1, c2);
  store.Add(rel, c0, s2, c2);
  return store;
}

TEST(Dijkstra, PrefersCheaperMultiHopPath) {
  TripleStore store = WeightedDiamond();
  const TripleSet& base = *store.FindRelation("E");
  ObjId c0 = store.FindObject("city0"), c2 = store.FindObject("city2");
  auto r = DijkstraShortestPath(base, store, c0, c2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reached);
  EXPECT_EQ(r->distance, 2);
  EXPECT_EQ(r->edges.size(), 2u);  // the two s1 hops, not the s2 edge
  ObjId s1 = store.FindObject("s1");
  for (const Triple& t : r->edges) EXPECT_EQ(t.p, s1);
}

TEST(Dijkstra, UnweightedDefaultsToHopCount) {
  TripleStore store = WeightedDiamond();
  // Clear the weights: every edge costs 1, so the direct edge wins.
  store.SetValue(store.FindObject("s1"), DataValue::Null());
  store.SetValue(store.FindObject("s2"), DataValue::Null());
  auto r = DijkstraShortestPath(*store.FindRelation("E"), store,
                                store.FindObject("city0"),
                                store.FindObject("city2"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reached);
  EXPECT_EQ(r->distance, 1);
  EXPECT_EQ(r->edges.size(), 1u);
}

TEST(Dijkstra, TreeModeUnreachableAndErrors) {
  TripleStore store = WeightedDiamond();
  const TripleSet& base = *store.FindRelation("E");
  ObjId c0 = store.FindObject("city0"), c2 = store.FindObject("city2");

  // Full tree from city0: one parent edge per other reachable node,
  // distance = eccentricity (city1 at 1, city2 at 2).
  auto tree = DijkstraShortestPath(base, store, c0);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->reached);
  EXPECT_EQ(tree->edges.size(), 2u);
  EXPECT_EQ(tree->distance, 2);

  // city2 is a sink: nothing reachable, src == dst trivially reached.
  auto back = DijkstraShortestPath(base, store, c2, c0);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->reached);
  EXPECT_TRUE(back->edges.empty());
  auto self = DijkstraShortestPath(base, store, c0, c0);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self->reached);
  EXPECT_EQ(self->distance, 0);

  // A negative weight anywhere in the relation is rejected up front.
  store.SetValue(store.FindObject("s2"), DataValue::Int(-3));
  auto bad = DijkstraShortestPath(*store.FindRelation("E"), store, c0, c2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Dijkstra, PlanShortestPathEndToEnd) {
  TripleStore store = WeightedDiamond();
  PlanPtr p = PlanShortestPath(store, "E", "city0", "city2");
  ASSERT_EQ(p->op, PlanOp::kDijkstraScan);
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_TRUE(p->runtime.sp_reached);
  EXPECT_EQ(p->runtime.sp_distance, 2);
  EXPECT_STREQ(p->runtime.strategy, "dijkstra");
  std::string rendered = Explain(*p);
  EXPECT_NE(rendered.find("DijkstraScan"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("dist=2"), std::string::npos) << rendered;

  // Unknown names surface as NotFound at execution, not planning.
  PlanPtr bad = PlanShortestPath(store, "E", "city0", "nope");
  auto br = ExecutePlan(*bad, store);
  ASSERT_FALSE(br.ok());
  EXPECT_EQ(br.status().code(), StatusCode::kNotFound);
}

TEST(Dijkstra, NegativeWeightCountTracksSetValue) {
  TripleStore store = WeightedDiamond();
  const ObjId c0 = store.FindObject("city0"), c2 = store.FindObject("city2");
  const ObjId s2 = store.FindObject("s2");
  EXPECT_EQ(store.NumNegativeIntValues(), 0u);

  // A negative rho on an object that labels no edge of the relation
  // does not concern the search.
  const ObjId unused = store.InternObject("unused");
  store.SetValue(unused, DataValue::Int(-7));
  EXPECT_EQ(store.NumNegativeIntValues(), 1u);
  auto ok = DijkstraShortestPath(*store.FindRelation("E"), store, c0, c2);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->distance, 2);

  // Overwriting a negative weight with a non-negative or null one
  // clears it from the count.
  store.SetValue(s2, DataValue::Int(-3));
  EXPECT_EQ(store.NumNegativeIntValues(), 2u);
  EXPECT_FALSE(
      DijkstraShortestPath(*store.FindRelation("E"), store, c0, c2).ok());
  store.SetValue(s2, DataValue::Int(2));
  EXPECT_EQ(store.NumNegativeIntValues(), 1u);
  EXPECT_TRUE(
      DijkstraShortestPath(*store.FindRelation("E"), store, c0, c2).ok());
  store.SetValue(s2, DataValue::Int(-3));
  store.SetValue(s2, DataValue::Null());
  store.SetValue(unused, DataValue::Str("-7"));
  EXPECT_EQ(store.NumNegativeIntValues(), 0u);
  EXPECT_TRUE(
      DijkstraShortestPath(*store.FindRelation("E"), store, c0, c2).ok());
}

TEST(Dijkstra, NegativeWeightSurvivesCopyAndSnapshot) {
  TripleStore store = WeightedDiamond();
  store.SetValue(store.FindObject("s2"), DataValue::Int(-3));
  const ObjId c0 = store.FindObject("city0"), c2 = store.FindObject("city2");

  TripleStore copy = store;
  EXPECT_EQ(copy.NumNegativeIntValues(), 1u);
  auto bad = DijkstraShortestPath(*copy.FindRelation("E"), copy, c0, c2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().ToString().find("negative edge weight rho(s2) = -3"),
            std::string::npos)
      << bad.status().ToString();

  const std::string path = testing::TempDir() + "/dijkstra_negative.trial";
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->NumNegativeIntValues(), 1u);
  auto reopened_bad =
      DijkstraShortestPath(*opened->FindRelation("E"), *opened, c0, c2);
  ASSERT_FALSE(reopened_bad.ok());
  EXPECT_EQ(reopened_bad.status().code(), StatusCode::kInvalidArgument);
}

// a -p-> b -p-> c with one chain predicate weighted `w`.
TripleStore Chain(int64_t w) {
  TripleStore store;
  RelId rel = store.AddRelation("E");
  ObjId a = store.InternObject("a"), b = store.InternObject("b");
  ObjId c = store.InternObject("c"), p = store.InternObject("p");
  store.SetValue(p, DataValue::Int(w));
  store.Add(rel, a, p, b);
  store.Add(rel, b, p, c);
  return store;
}

TEST(Dijkstra, DistanceOverflowIsAnErrorNotAWrap) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  TripleStore store = Chain(kMax - 1);
  const TripleSet& base = *store.FindRelation("E");
  const ObjId a = store.FindObject("a"), b = store.FindObject("b");
  const ObjId c = store.FindObject("c");
  for (ObjId dst : {c, kInvalidIntern}) {
    auto r = DijkstraShortestPath(base, store, a, dst);
    ASSERT_FALSE(r.ok()) << "reached=" << r->reached
                         << " distance=" << r->distance;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find("overflow"), std::string::npos)
        << r.status().ToString();
  }
  // One hop of the same weight fits.
  auto one = DijkstraShortestPath(base, store, a, b);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_TRUE(one->reached);
  EXPECT_EQ(one->distance, kMax - 1);

  // A single edge of weight INT64_MAX is an ordinary, reachable edge.
  TripleStore top = Chain(kMax);
  auto edge = DijkstraShortestPath(*top.FindRelation("E"), top,
                                   top.FindObject("a"), top.FindObject("b"));
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_TRUE(edge->reached);
  EXPECT_EQ(edge->distance, kMax);
  EXPECT_EQ(edge->edges.size(), 1u);
}

// Reference: Dijkstra over the dense CSR of the whole relation (NodeMap
// + Csr, a dense distance array with an "infinity" sentinel), with the
// same tie-breaks.  Non-negative, non-overflowing weights only.
ShortestPathResult DenseDijkstra(const TripleSet& base,
                                 const TripleStore& store, ObjId src,
                                 ObjId dst) {
  const std::vector<Triple>& spo = base.triples();
  ShortestPathResult r;
  const bool have_dst = dst != kInvalidIntern;
  if (have_dst && dst == src) {
    r.reached = true;
    return r;
  }
  reach::NodeMap ids(base);
  const uint32_t dsrc = ids.DenseOrNoNode(src);
  if (dsrc == reach::kNoNode) return r;
  const uint32_t ddst = have_dst ? ids.DenseOrNoNode(dst) : reach::kNoNode;
  if (have_dst && ddst == reach::kNoNode) return r;
  reach::Csr g = reach::Csr::FromSpo(spo, ids);
  auto weight = [&](ObjId p) {
    const DataValue& v = store.Value(p);
    return v.is_int() ? v.AsInt() : int64_t{1};
  };
  const size_t n = ids.size();
  std::vector<int64_t> dist(n, std::numeric_limits<int64_t>::max());
  std::vector<uint32_t> parent(n, UINT32_MAX);
  std::vector<uint8_t> settled(n, 0);
  using Entry = std::pair<int64_t, uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  dist[dsrc] = 0;
  pq.push({0, dsrc});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    ++r.settled;
    r.distance = std::max(r.distance, d);
    if (have_dst && u == ddst) break;
    for (uint32_t e = g.off[u]; e < g.off[u + 1]; ++e) {
      const uint32_t v = g.to[e];
      if (settled[v]) continue;
      const int64_t nd = dist[u] + weight(spo[e].p);
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = e;
        pq.push({nd, v});
      }
    }
  }
  std::vector<Triple> edges;
  if (have_dst) {
    if (!settled[ddst]) return r;
    r.reached = true;
    r.distance = dist[ddst];
    for (uint32_t v = ddst; v != dsrc; v = ids.Dense(spo[parent[v]].s)) {
      edges.push_back(spo[parent[v]]);
    }
  } else {
    r.reached = true;
    for (uint32_t v = 0; v < n; ++v) {
      if (settled[v] && parent[v] != UINT32_MAX) edges.push_back(spo[parent[v]]);
    }
  }
  r.edges = TripleSet(std::move(edges));
  return r;
}

// A random weighted graph in relation "E": nodes n0..n{N-1} (the last
// few only ever targets, i.e. sinks), predicates weighted by ints in
// [0, 4] (zeros force distance ties), null or a string (both cost 1),
// plus objects that are no node of E — labels of another relation's
// edges or plain interned names.
TripleStore RandomWeightedStore(uint64_t seed) {
  Rng rng(seed);
  TripleStore store;
  const RelId e = store.AddRelation("E");
  const RelId f = store.AddRelation("F");
  const size_t n = 12 + rng.Below(20), sinks = 1 + rng.Below(4);
  std::vector<ObjId> nodes, preds;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(store.InternObject("n" + std::to_string(i)));
  }
  for (size_t i = 0; i < 6; ++i) {
    const ObjId p = store.InternObject("p" + std::to_string(i));
    switch (rng.Below(4)) {
      case 0:
        break;  // null rho
      case 1:
        store.SetValue(p, DataValue::Str("far"));
        break;
      default:
        store.SetValue(p, DataValue::Int(rng.Range(0, 4)));
    }
    preds.push_back(p);
  }
  const size_t m = n + rng.Below(3 * n);
  for (size_t i = 0; i < m; ++i) {
    store.Add(e, nodes[rng.Below(n - sinks)], preds[rng.Below(preds.size())],
              nodes[rng.Below(n)]);
  }
  const ObjId x = store.InternObject("x"), y = store.InternObject("y");
  store.Add(f, x, preds[0], y);
  store.InternObject("loner");
  return store;
}

void ExpectMatchesDenseReference(const TripleStore& store, uint64_t seed) {
  const TripleSet& base = *store.FindRelation("E");
  for (ObjId src = 0; src < store.NumObjects(); ++src) {
    std::vector<ObjId> dsts{kInvalidIntern, src};
    for (ObjId dst = 0; dst < store.NumObjects(); ++dst) dsts.push_back(dst);
    for (ObjId dst : dsts) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   std::string(store.ObjectName(src)) + " -> " +
                   (dst == kInvalidIntern
                        ? std::string("(tree)")
                        : std::string(store.ObjectName(dst))));
      auto got = DijkstraShortestPath(base, store, src, dst);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const ShortestPathResult want = DenseDijkstra(base, store, src, dst);
      EXPECT_EQ(got->reached, want.reached);
      EXPECT_EQ(got->distance, want.distance);
      EXPECT_EQ(got->settled, want.settled);
      EXPECT_EQ(got->edges, want.edges);
    }
  }
}

TEST(Dijkstra, MatchesDenseReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    TripleStore store = RandomWeightedStore(seed);
    ExpectMatchesDenseReference(store, seed);

    const std::string path = testing::TempDir() + "/dijkstra_diff_" +
                             std::to_string(seed) + ".trial";
    ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
    auto opened = OpenStoreSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ExpectMatchesDenseReference(*opened, seed);
  }
}

// ---- NodeMap: marked, direct and binary-search modes -----------------

// `nodes` distinct ids spread `stride` apart in the intern space, and
// `triples` random triples over them: wider strides move NodeMap from
// direct indexing to binary search.
TripleStore SpreadStore(size_t nodes, size_t triples, size_t stride,
                        uint64_t seed) {
  TripleStore store;
  RelId rel = store.AddRelation("E");
  std::vector<ObjId> ids;
  for (size_t i = 0; i < nodes * stride; ++i) {
    ObjId id = store.InternObject("x" + std::to_string(i));
    if (i % stride == 0) ids.push_back(id);
  }
  Rng rng(seed);
  for (size_t t = 0; t < triples; ++t) {
    store.Add(rel, ids[rng.Below(nodes)], ids[rng.Below(nodes)],
              ids[rng.Below(nodes)]);
  }
  return store;
}

void ExpectNodeMapIsBruteNodeList(const TripleSet& base, ObjId id_limit) {
  std::vector<ObjId> want;
  for (const Triple& t : base) {
    want.push_back(t.s);
    want.push_back(t.o);
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  reach::NodeMap ids(base);
  ASSERT_EQ(ids.nodes(), want);
  for (uint32_t d = 0; d < ids.size(); ++d) {
    EXPECT_EQ(ids.Raw(d), want[d]);
    EXPECT_EQ(ids.Dense(want[d]), d);
    EXPECT_EQ(ids.DenseOrNoNode(want[d]), d);
  }
  for (ObjId v = 0; v < id_limit; ++v) {
    if (!std::binary_search(want.begin(), want.end(), v)) {
      EXPECT_EQ(ids.DenseOrNoNode(v), reach::kNoNode) << v;
    }
  }
}

TEST(NodeMapModes, EveryModeListsTheSameNodesAndDenseIds) {
  struct Case {
    size_t nodes, triples, stride;
    bool direct;
  };
  // Dense ids index directly; few nodes over a wide range are marked
  // but searched; a range far wider than the relation is sorted and
  // searched.  No mode builds OSP, and a built OSP changes nothing.
  for (const Case& c : {Case{60, 300, 1, true}, Case{20, 2000, 200, false},
                        Case{50, 100, 1000, false}}) {
    SCOPED_TRACE("stride " + std::to_string(c.stride));
    TripleStore store = SpreadStore(c.nodes, c.triples, c.stride, 7);
    const TripleSet& base = *store.FindRelation("E");
    ASSERT_FALSE(base.IndexReady(IndexOrder::kOSP));
    EXPECT_EQ(reach::NodeMap(base).direct(), c.direct);
    const ObjId limit = static_cast<ObjId>(store.NumObjects() + 10);
    ExpectNodeMapIsBruteNodeList(base, limit);
    EXPECT_FALSE(base.IndexReady(IndexOrder::kOSP));  // never forced
    base.Materialize(IndexOrder::kOSP);
    ExpectNodeMapIsBruteNodeList(base, limit);
  }
}

// ---- walk stars: every shape against the naive fixpoint ---------------

// A walk star moving column `col` (0..2): the right star
// (e JOIN[..; col=1'])* with 3' in position col, or its left mirror
// (JOIN[..; 1=col'] e)* with 3 in position col.
ExprPtr Walk(ExprPtr e, int col, bool right) {
  JoinSpec spec;
  for (int k = 0; k < 3; ++k) {
    spec.out[k] = static_cast<Pos>(k == col ? (right ? 5 : 2)
                                            : (right ? k : k + 3));
  }
  spec.cond.theta = {right ? Eq(static_cast<Pos>(col), Pos::P1p)
                           : Eq(Pos::P1, static_cast<Pos>(col + 3))};
  return right ? Expr::StarRight(std::move(e), spec)
               : Expr::StarLeft(std::move(e), spec);
}

// The same-middle star and its left mirror.
ExprPtr SameMiddle(ExprPtr e, bool right) {
  if (right) return ReachSameMiddle(std::move(e));
  return Expr::StarLeft(std::move(e),
                        Spec(Pos::P1p, Pos::P2p, Pos::P3,
                             {Eq(Pos::P1, Pos::P3p), Eq(Pos::P2, Pos::P2p)}));
}

struct WalkShapeCase {
  std::string name;
  int col;
  bool same_middle;
  bool right;
  ExprPtr Star(ExprPtr e) const {
    return same_middle ? SameMiddle(std::move(e), right)
                       : Walk(std::move(e), col, right);
  }
};

std::vector<WalkShapeCase> AllWalkShapes() {
  std::vector<WalkShapeCase> out;
  for (bool right : {true, false}) {
    const std::string side = right ? " right" : " left";
    for (int col = 0; col < 3; ++col) {
      out.push_back({"pos=" + std::to_string(col + 1) + side, col, false,
                     right});
    }
    out.push_back({"same-middle" + side, 2, true, right});
  }
  return out;
}

reach::ReachGraph GraphFor(const WalkShapeCase& w) {
  return w.same_middle ? reach::ReachGraph::kLabelProduct
                       : reach::ReachGraph::kSubjectObject;
}

// Every walk shape over relation E of `store`, stored and derived,
// through the plan and straight off a fresh index, equal to the naive
// fixpoint; the result guard trips mid-walk.
void ExpectWalksMatchNaive(const TripleStore& store) {
  auto naive = MakeNaiveEvaluator();
  const TripleSet& rel = *store.FindRelation("E");
  // A derived base: E without its self-loops.
  ExprPtr derived_expr =
      Expr::Select(Expr::Rel("E"), Where({Neq(Pos::P1, Pos::P3)}));
  auto derived = naive->Eval(derived_expr, store);
  ASSERT_TRUE(derived.ok());
  for (const WalkShapeCase& w : AllWalkShapes()) {
    SCOPED_TRACE(w.name);
    ExprPtr star = w.Star(Expr::Rel("E"));
    auto want = naive->Eval(star, store);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    // Stored base with a warm index: the planner routes the walk to
    // ReachIndexScan and prices it from the index.
    auto warm = ReachIndex::GetOrBuild(rel, GraphFor(w));
    PlanPtr p = PlanExpr(star, store);
    ASSERT_EQ(p->op, PlanOp::kReachIndexScan) << Explain(*p);
    EXPECT_EQ(p->walk_col, w.col);
    EXPECT_EQ(p->reach_same_middle, w.same_middle);
    EXPECT_DOUBLE_EQ(p->est_rows,
                     static_cast<double>(warm->walk_output_rows(w.col)));
    EXPECT_GE(p->est_rows, static_cast<double>(want->size()));
    auto got = ExecutePlan(*p, store);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *want);
    // The guard trips mid-walk.
    ExecLimits capped;
    capped.max_result_triples = want->size() / 2;
    auto over = ExecutePlan(*p, store, capped);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
    // A fresh index, built and expanded directly.
    auto fresh = ReachIndex::Build(rel, GraphFor(w));
    auto direct = fresh->EmitWalk(rel, w.col, 50'000'000);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*direct, *want) << "direct";
    auto over_direct = fresh->EmitWalk(rel, w.col, want->size() / 2);
    ASSERT_FALSE(over_direct.ok());
    EXPECT_EQ(over_direct.status().code(), StatusCode::kResourceExhausted);

    // Derived base: the plan builds the index cold over the derived
    // set, and an index built over it directly emits the same walk.
    ExprPtr dstar = w.Star(derived_expr);
    auto dwant = naive->Eval(dstar, store);
    ASSERT_TRUE(dwant.ok());
    PlanPtr dp = PlanExpr(dstar, store);
    ASSERT_EQ(dp->op, PlanOp::kReachIndexScan) << Explain(*dp);
    EXPECT_EQ(dp->walk_col, w.col);
    EXPECT_EQ(dp->reach_same_middle, w.same_middle);
    auto dgot = ExecutePlan(*dp, store);
    ASSERT_TRUE(dgot.ok()) << dgot.status().ToString();
    EXPECT_EQ(*dgot, *dwant) << "derived";
    ExecLimits dcapped;
    dcapped.max_result_triples = dwant->size() / 2;
    auto dover = ExecutePlan(*dp, store, dcapped);
    ASSERT_FALSE(dover.ok()) << "derived";
    EXPECT_EQ(dover.status().code(), StatusCode::kResourceExhausted);
    auto idx = ReachIndex::Build(*derived, GraphFor(w));
    auto ddirect = idx->EmitWalk(*derived, w.col, 50'000'000);
    ASSERT_TRUE(ddirect.ok());
    EXPECT_EQ(*ddirect, *dwant) << "derived direct";
  }
}

TEST(WalkStars, EveryShapeMatchesNaiveOnCyclicStores) {
  // Dense SCCs and cycles; s, p and o share one id pool, so some
  // middles are graph nodes and some are not.
  for (uint64_t seed : {2u, 9u, 31u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectWalksMatchNaive(CyclicStore(seed, /*objects=*/30, /*triples=*/120));
  }
}

TEST(WalkStars, EveryShapeMatchesNaiveOnTransport) {
  // Figure 1's shape: service middles are nodes (they head part_of
  // chains), the part_of middle is not.
  TransportOptions opts;
  opts.num_cities = 12;
  opts.num_services = 4;
  opts.seed = 5;
  ExpectWalksMatchNaive(TransportNetwork(opts));
}

TEST(WalkStars, EveryShapeMatchesNaiveAfterSnapshotReopen) {
  TripleStore store = CyclicStore(14, /*objects=*/30, /*triples=*/120);
  const std::string path = testing::TempDir() + "/walk_stars.trial";
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->FindRelation("E")->snapshot_backed());
  ExpectWalksMatchNaive(*opened);
}

TEST(WalkStars, LabelIndexCachesBesideTheSubjectObjectIndex) {
  TripleStore store = CyclicStore(6);
  const TripleSet& rel = *store.FindRelation("E");
  ASSERT_GT(rel.size(), 0u);
  auto by_label =
      ReachIndex::GetOrBuild(rel, reach::ReachGraph::kLabelProduct);
  EXPECT_EQ(by_label->graph(), reach::ReachGraph::kLabelProduct);
  EXPECT_EQ(ReachIndex::Cached(rel), nullptr);
  auto any = ReachIndex::GetOrBuild(rel);
  EXPECT_EQ(ReachIndex::Cached(rel), any);
  EXPECT_EQ(ReachIndex::Cached(rel, reach::ReachGraph::kLabelProduct),
            by_label);
  // The label index walks only column 2.
  EXPECT_EQ(by_label->walk_output_rows(1), 0u);
  auto wrong = by_label->EmitWalk(rel, 1, 50'000'000);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(*by_label->EmitWalk(rel, 2, 50'000'000),
            StarReachSameMiddle(rel));
}

}  // namespace
}  // namespace trial
