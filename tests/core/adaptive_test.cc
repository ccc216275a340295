// Cardinality feedback (core/plan/adapt.*): the byte-identical contract
// of ExecuteAdaptive against the plain plan, the
// correlated-misestimate shape planned right up front and its feedback
// recorded for the next plan, the FeedbackCache's epoch/store scoping,
// and the smart evaluator's LRU plan cache.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/builder.h"
#include "core/eval.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "graph/generators.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace trial {
namespace plan {
namespace {

TripleStore ZipfStore(size_t triples, uint64_t seed) {
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

// A random join tree with `leaves` region leaves: self-joins over E,
// leaves optionally constant-selected, specs biased toward equality
// atoms so the DP reorderer has real key graphs to chew on.
ExprPtr RandomJoinTree(Rng* rng, int leaves) {
  auto rand_pos = [&] { return static_cast<Pos>(rng->Below(6)); };
  if (leaves == 1) {
    if (rng->Chance(1, 3)) {
      CondSet cond;
      cond.theta.push_back(ObjConstraint{
          ObjTerm::P(static_cast<Pos>(rng->Below(3))),
          ObjTerm::C(static_cast<ObjId>(rng->Below(8))), rng->Chance(2, 3)});
      return Expr::Select(Expr::Rel("E"), cond);
    }
    return Expr::Rel("E");
  }
  JoinSpec spec;
  spec.out = {rand_pos(), rand_pos(), rand_pos()};
  for (size_t i = 0, n = 1 + rng->Below(2); i < n; ++i) {
    spec.cond.theta.push_back(ObjConstraint{
        ObjTerm::P(rand_pos()), ObjTerm::P(rand_pos()), rng->Chance(5, 6)});
  }
  int l = 1 + static_cast<int>(rng->Below(static_cast<uint64_t>(leaves - 1)));
  return Expr::Join(RandomJoinTree(rng, l), RandomJoinTree(rng, leaves - l),
                    std::move(spec));
}

// ---- byte-identical property ------------------------------------------

// ExecuteAdaptive must return exactly ExecutePlan(PlanExpr(e))'s result
// on random 3-5-relation join expressions — also the
// second time round, when the plan comes from the recorded feedback.
// Each case gets a fresh FeedbackCache: no learning leaks between
// expressions.
TEST(AdaptiveEquivalence, ByteIdenticalToStaticOnRandomJoins) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 131 + 7);
    TripleStore store = ZipfStore(512, seed * 31 + 2);
    for (int i = 0; i < 6; ++i) {
      ExprPtr e = RandomJoinTree(&rng, 3 + static_cast<int>(rng.Below(3)));
      PlanPtr st = PlanExpr(e, store);
      auto want = ExecutePlan(*st, store);
      if (!want.ok()) continue;  // resource guard: same either route
      FeedbackCache fb;
      ExecLimits lim;
      lim.adaptive = true;
      for (int pass = 0; pass < 2; ++pass) {
        AdaptiveResult ar;
        auto got = ExecuteAdaptive(e, store, lim, false, &ar, &fb);
        ASSERT_TRUE(got.ok())
            << "seed " << seed << " expr " << e->ToString() << ": "
            << got.status().ToString();
        EXPECT_TRUE(*got == *want)
            << "seed " << seed << " pass " << pass << "\n"
            << e->ToString();
        ASSERT_NE(ar.plan, nullptr);
      }
    }
  }
}

// ---- golden: the correlated misestimate -------------------------------

// One hot predicate p0 carries half of R1 while the cold half spreads
// over singleton predicates, so uniformity (|R1| / distinct predicates)
// prices sigma[2=p0](R1) at ~2 rows against 2000 actual.  Joining that
// "tiny" selection first is the bad order; priced by p0's own frequency
// the planner joins R2-R3 first and R1 last, up front.
struct Fixture {
  TripleStore store;
  ObjId p0 = 0;
};

Fixture MisestimateFixture(size_t hot) {
  Fixture fx;
  TripleStore& st = fx.store;
  RelId r1 = st.AddRelation("R1");
  RelId r2 = st.AddRelation("R2");
  RelId r3 = st.AddRelation("R3");
  fx.p0 = st.InternObject("p0");
  const size_t keys = 50;
  for (size_t i = 0; i < hot; ++i) {
    st.Add(r1, st.InternObject("s" + std::to_string(i)), fx.p0,
           st.InternObject("m" + std::to_string(i % keys)));
  }
  for (size_t i = 0; i < hot; ++i) {
    st.Add(r1, st.InternObject("t" + std::to_string(i)),
           st.InternObject("q" + std::to_string(i)),
           st.InternObject("u" + std::to_string(i)));
  }
  ObjId pb = st.InternObject("pb");
  const size_t b = hot / 2;
  for (size_t i = 0; i < b; ++i) {
    st.Add(r2, st.InternObject("m" + std::to_string(i % keys)), pb,
           st.InternObject("n" + std::to_string(i)));
  }
  ObjId pc = st.InternObject("pc");
  const size_t sel = 50, step = b > sel ? b / sel : 1;
  for (size_t j = 0; j < sel; ++j) {
    st.Add(r3, st.InternObject("n" + std::to_string((j * step) % b)), pc,
           st.InternObject("o" + std::to_string(j)));
  }
  for (RelId r = 0; r < st.NumRelations(); ++r) st.RelationStats(r);
  return fx;
}

ExprPtr MisestimateQuery(ObjId p0) {
  JoinSpec chain = Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)});
  return Expr::Join(
      Expr::Join(Expr::Select(Expr::Rel("R1"), Where({EqConst(Pos::P2, p0)})),
                 Expr::Rel("R2"), chain),
      Expr::Rel("R3"), chain);
}

// Depth of the IndexScan over R1, or -1.  In the bad order
// ((sigma(R1) JOIN R2) JOIN R3) the scan sits at depth 3 (root -> inner
// join -> selection -> scan); when R1 joins last the selection subtree
// is a direct child of the root, so the scan sits at depth 2.
int R1Depth(const PlanNode& n, int depth) {
  if (n.rel_name == "R1") return depth;
  for (const PlanPtr& c : n.children) {
    int d = R1Depth(*c, depth + 1);
    if (d >= 0) return d;
  }
  return -1;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(AdaptiveGolden, CorrelatedMisestimatePlansR1LastAndRecordsFeedback) {
  Fixture fx = MisestimateFixture(2000);
  ExprPtr e = MisestimateQuery(fx.p0);

  // The plain plan already joins R1 last: the selection is priced at
  // p0's exact frequency, not at |R1| / distinct predicates.
  PlanPtr st = PlanExpr(e, fx.store);
  EXPECT_EQ(R1Depth(*st, 0), 2) << Explain(*st);
  auto want = ExecutePlan(*st, fx.store);
  ASSERT_TRUE(want.ok());

  FeedbackCache fb;
  ExecLimits lim;
  lim.adaptive = true;
  AdaptiveResult ar;
  auto got = ExecuteAdaptive(e, fx.store, lim, false, &ar, &fb);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got == *want);
  ASSERT_NE(ar.plan, nullptr);
  EXPECT_EQ(R1Depth(*ar.plan, 0), 2) << Explain(*ar.plan);
  // The root is counted on the returned tree and recorded under both
  // its expression key and its region-subset key; so is every counted
  // region node below it.
  const double rows = static_cast<double>(want->size());
  EXPECT_TRUE(ar.plan->runtime.rows_known);
  EXPECT_EQ(ar.plan->runtime.actual_rows, want->size());
  const std::string sig = e->ToString();
  EXPECT_DOUBLE_EQ(fb.Lookup(fx.store, sig), rows);
  EXPECT_DOUBLE_EQ(
      fb.Lookup(fx.store, RegionSubsetKey(sig, ar.plan->region_mask)), rows);
  ASSERT_EQ(ar.plan->children.size(), 2u);
  for (const PlanPtr& c : ar.plan->children) {
    ASSERT_NE(c->region_mask, 0u) << Explain(*ar.plan);
    ASSERT_TRUE(c->runtime.rows_known);
    EXPECT_DOUBLE_EQ(fb.Lookup(fx.store, RegionSubsetKey(sig, c->region_mask)),
                     static_cast<double>(c->runtime.actual_rows));
  }

  // A warm re-plan hits the recorded feedback: the root estimate is the
  // observed count, and the order stays.
  bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  uint64_t hits0 = CounterValue("feedback.hits");
  PlanningHints hints;
  hints.feedback = &fb;
  PlanPtr warm = PlanExpr(e, fx.store, hints);
  EXPECT_GT(CounterValue("feedback.hits"), hits0);
  SetMetricsEnabled(was_enabled);
  EXPECT_DOUBLE_EQ(warm->est_rows, rows) << Explain(*warm);
  EXPECT_EQ(R1Depth(*warm, 0), 2) << Explain(*warm);
  auto again = ExecuteAdaptive(e, fx.store, lim, false, nullptr, &fb);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *want);
}

// ---- FeedbackCache scoping --------------------------------------------

TEST(FeedbackCacheTest, HitsOnlySameStoreAndEpoch) {
  TripleStore a;
  RelId r = a.AddRelation("E");
  a.Add(r, a.InternObject("x"), a.InternObject("y"), a.InternObject("z"));
  FeedbackCache fb;
  fb.Record(a, "(E)", 41.0);
  EXPECT_DOUBLE_EQ(fb.Lookup(a, "(E)"), 41.0);
  EXPECT_LT(fb.Lookup(a, "(F)"), 0);  // unknown key

  TripleStore b;
  b.AddRelation("E");
  EXPECT_LT(fb.Lookup(b, "(E)"), 0);  // different store, same key

  // Any mutation bumps the epoch and strands the entry.
  a.Add(r, a.InternObject("x2"), a.InternObject("y2"), a.InternObject("z2"));
  EXPECT_LT(fb.Lookup(a, "(E)"), 0);

  // Re-recording at the new epoch overwrites the stale entry in place.
  fb.Record(a, "(E)", 42.0);
  EXPECT_DOUBLE_EQ(fb.Lookup(a, "(E)"), 42.0);
  EXPECT_EQ(fb.size(), 1u);
  fb.Clear();
  EXPECT_EQ(fb.size(), 0u);
}

TEST(FeedbackCacheTest, RegionSubsetKeysAreDistinctPerMask) {
  std::string sig = "(A JOIN B)";
  EXPECT_NE(RegionSubsetKey(sig, 0b011), RegionSubsetKey(sig, 0b101));
  EXPECT_NE(RegionSubsetKey(sig, 0b011), RegionSubsetKey("(A JOIN C)", 0b011));
  EXPECT_EQ(RegionSubsetKey(sig, 0b011), RegionSubsetKey(sig, 0b011));
}

// ---- smart evaluator LRU plan cache -----------------------------------

TEST(PlanCacheTest, RepeatQueriesHitUntilTheStoreMutates) {
  TripleStore store = ZipfStore(256, 77);
  bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  auto engine = MakeSmartEvaluator();
  ExprPtr e1 = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                          Spec(Pos::P1, Pos::P2, Pos::P3p,
                               {Eq(Pos::P3, Pos::P1p)}));
  // Syntactically equal but a distinct tree: keys are normalized text.
  ExprPtr e1_clone = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                                Spec(Pos::P1, Pos::P2, Pos::P3p,
                                     {Eq(Pos::P3, Pos::P1p)}));
  ExprPtr e2 = Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P3, 3)}));

  uint64_t hits0 = CounterValue("plan_cache.hits");
  uint64_t miss0 = CounterValue("plan_cache.misses");
  auto r1 = engine->Eval(e1, store);       // miss
  auto r2 = engine->Eval(e1_clone, store); // hit (same normalized key)
  auto r3 = engine->Eval(e2, store);       // miss
  auto r4 = engine->Eval(e1, store);       // hit
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok() && r4.ok());
  EXPECT_TRUE(*r1 == *r2 && *r1 == *r4);
  EXPECT_EQ(CounterValue("plan_cache.hits") - hits0, 2u);
  EXPECT_EQ(CounterValue("plan_cache.misses") - miss0, 2u);

  // A store mutation bumps the epoch: the next eval must re-plan (and
  // still be correct).
  store.Add(store.AddRelation("E"),  // existing name: id lookup only
            store.InternObject("fresh-s"), store.InternObject("fresh-p"),
            store.InternObject("fresh-o"));
  uint64_t miss1 = CounterValue("plan_cache.misses");
  auto r5 = engine->Eval(e1, store);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(CounterValue("plan_cache.misses") - miss1, 1u);
  auto naive = MakeNaiveEvaluator();
  auto r5_ref = naive->Eval(e1, store);
  ASSERT_TRUE(r5_ref.ok());
  EXPECT_TRUE(*r5 == *r5_ref);
  SetMetricsEnabled(was_enabled);
}

// ---- q-error guard -----------------------------------------------------

TEST(AdaptiveQError, DegenerateEstimatesStayFiniteAndAboveOne) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(QError(nan, 5), 5.0);   // NaN reads as "no info" (est 1)
  EXPECT_DOUBLE_EQ(QError(5, nan), 5.0);
  EXPECT_DOUBLE_EQ(QError(nan, nan), 1.0);
  EXPECT_TRUE(std::isfinite(QError(inf, 10)));
  EXPECT_TRUE(std::isfinite(QError(10, inf)));
  EXPECT_TRUE(std::isfinite(QError(inf, inf)));
  EXPECT_GE(QError(inf, inf), 1.0);
  EXPECT_GE(QError(-inf, 3), 1.0);  // negative junk clamps up to 1
  EXPECT_DOUBLE_EQ(QError(-7, -7), 1.0);
}

}  // namespace
}  // namespace plan
}  // namespace trial
