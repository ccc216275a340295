// E23 — the repository's master invariant: the three QueryComputation
// engines (paper-faithful matrix, naive nested-loop, optimized hash /
// semi-naive with fragment fast paths) compute identical results on
// randomized expressions and stores, with and without the optimizer.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/optimizer.h"
#include "core/plan/plan.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace trial {
namespace {

ExprPtr RandomExpr(Rng* rng, int depth, bool allow_star) {
  auto rand_pos = [&] { return static_cast<Pos>(rng->Below(6)); };
  auto rand_spec = [&](bool with_consts) {
    JoinSpec spec;
    spec.out = {rand_pos(), rand_pos(), rand_pos()};
    for (size_t i = 0, n = rng->Below(3); i < n; ++i) {
      spec.cond.theta.push_back(ObjConstraint{
          ObjTerm::P(rand_pos()), ObjTerm::P(rand_pos()), rng->Chance(3, 4)});
    }
    if (with_consts && rng->Chance(1, 3)) {
      spec.cond.theta.push_back(ObjConstraint{
          ObjTerm::P(rand_pos()), ObjTerm::C(static_cast<ObjId>(rng->Below(8))),
          rng->Chance(1, 2)});
    }
    if (rng->Chance(1, 3)) {
      spec.cond.eta.push_back(DataConstraint{
          DataTerm::P(rand_pos()), DataTerm::P(rand_pos()),
          rng->Chance(2, 3)});
    }
    if (rng->Chance(1, 5)) {
      spec.cond.eta.push_back(DataConstraint{
          DataTerm::P(rand_pos()),
          DataTerm::C(DataValue::Int(static_cast<int64_t>(rng->Below(4)))),
          rng->Chance(1, 2)});
    }
    return spec;
  };
  if (depth <= 0) {
    return rng->Chance(1, 6) ? Expr::Universe() : Expr::Rel("E");
  }
  switch (rng->Below(allow_star ? 8 : 6)) {
    case 0:
      return Expr::Rel("E");
    case 1: {
      CondSet cond;
      cond.theta.push_back(ObjConstraint{
          ObjTerm::P(static_cast<Pos>(rng->Below(3))),
          ObjTerm::P(static_cast<Pos>(rng->Below(3))), rng->Chance(3, 4)});
      if (rng->Chance(1, 3)) {
        cond.eta.push_back(
            DataConstraint{DataTerm::P(static_cast<Pos>(rng->Below(3))),
                           DataTerm::P(static_cast<Pos>(rng->Below(3))),
                           rng->Chance(1, 2)});
      }
      return Expr::Select(RandomExpr(rng, depth - 1, allow_star), cond);
    }
    case 2:
      return Expr::Union(RandomExpr(rng, depth - 1, allow_star),
                         RandomExpr(rng, depth - 1, allow_star));
    case 3:
      return Expr::Diff(RandomExpr(rng, depth - 1, allow_star),
                        RandomExpr(rng, depth - 1, allow_star));
    case 4:
      return Expr::Intersect(RandomExpr(rng, depth - 1, allow_star),
                             RandomExpr(rng, depth - 1, allow_star));
    case 5:
      return Expr::Join(RandomExpr(rng, depth - 1, allow_star),
                        RandomExpr(rng, depth - 1, allow_star),
                        rand_spec(true));
    case 6:
      return Expr::StarRight(RandomExpr(rng, depth - 1, false),
                             rand_spec(false));
    default:
      return Expr::StarLeft(RandomExpr(rng, depth - 1, false),
                            rand_spec(false));
  }
}

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineEquivalenceTest, AllEnginesAgree) {
  Rng rng(GetParam() * 1009 + 17);
  RandomStoreOptions opts;
  opts.num_objects = 7;
  opts.num_triples = 18;
  opts.num_data_values = 3;
  opts.seed = GetParam() * 13 + 1;
  TripleStore store = RandomTripleStore(opts);

  auto naive = MakeNaiveEvaluator();
  auto matrix = MakeMatrixEvaluator();
  auto smart = MakeSmartEvaluator();

  for (int i = 0; i < 10; ++i) {
    ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
    auto rn = naive->Eval(e, store);
    auto rm = matrix->Eval(e, store);
    auto rs = smart->Eval(e, store);
    ASSERT_TRUE(rn.ok()) << rn.status().ToString() << "\n" << e->ToString();
    ASSERT_TRUE(rm.ok()) << rm.status().ToString();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(*rn, *rm) << "naive vs matrix on " << e->ToString();
    EXPECT_EQ(*rn, *rs) << "naive vs smart on " << e->ToString();
  }
}

TEST_P(EngineEquivalenceTest, OptimizerPreservesResults) {
  Rng rng(GetParam() * 2003 + 29);
  RandomStoreOptions opts;
  opts.num_objects = 6;
  opts.num_triples = 15;
  opts.seed = GetParam() * 7 + 2;
  TripleStore store = RandomTripleStore(opts);
  auto engine = MakeSmartEvaluator();
  for (int i = 0; i < 12; ++i) {
    ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
    ExprPtr o = Optimize(e);
    auto before = engine->Eval(e, store);
    auto after = engine->Eval(o, store);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(*before, *after)
        << "optimizer changed semantics:\n  " << e->ToString() << "\n  ~~> "
        << o->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 11));

// Same master invariant on Zipf-skewed stores (SP²Bench-style skew), so
// the index-routed paths of the smart engine see hot keys with wide
// ranges next to cold keys with empty ones.
TEST(EngineEquivalenceSkewed, AllEnginesAgreeOnZipfStores) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 501 + 3);
    RandomStoreOptions opts;
    opts.num_objects = 9;
    opts.num_triples = 30;
    opts.num_data_values = 3;
    opts.zipf_p = 1.4;
    opts.zipf_o = 0.9;
    opts.seed = seed * 11 + 5;
    TripleStore store = RandomTripleStore(opts);

    auto naive = MakeNaiveEvaluator();
    auto matrix = MakeMatrixEvaluator();
    auto smart = MakeSmartEvaluator();
    for (int i = 0; i < 8; ++i) {
      ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
      auto rn = naive->Eval(e, store);
      auto rm = matrix->Eval(e, store);
      auto rs = smart->Eval(e, store);
      ASSERT_TRUE(rn.ok()) << rn.status().ToString() << "\n" << e->ToString();
      ASSERT_TRUE(rm.ok()) << rm.status().ToString();
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(*rn, *rm) << "naive vs matrix on " << e->ToString();
      EXPECT_EQ(*rn, *rs) << "naive vs smart on " << e->ToString();
    }
  }
}

// The plan executor, run directly — plan::PlanExpr + plan::ExecutePlan,
// the code path the smart engine shims to — equals the smart engine
// across random TriAL expressions, stars included, on Zipf-skewed
// stores.
TEST(PlanExecutorEquivalence, MatchesSmartEngineOnZipfStores) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 733 + 7);
    RandomStoreOptions opts;
    opts.num_objects = 12;
    opts.num_triples = 60;
    opts.num_data_values = 3;
    opts.zipf_p = 1.2;
    opts.zipf_o = 0.8;
    opts.seed = seed * 19 + 3;
    TripleStore store = RandomTripleStore(opts);

    auto smart = MakeSmartEvaluator();
    for (int i = 0; i < 8; ++i) {
      ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
      auto r0 = smart->Eval(e, store);
      plan::PlanPtr p = plan::PlanExpr(e, store);
      auto r1 = plan::ExecutePlan(*p, store);
      ASSERT_TRUE(r0.ok()) << r0.status().ToString() << "\n" << e->ToString();
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      EXPECT_EQ(*r0, *r1) << "smart vs plan on " << e->ToString();
    }
  }
}

// MinusOp's two strategies against the naive engine.  The anti-probe never runs the right side: it keeps a left
// triple unless every selection on the right chain holds on it and the
// stored relation contains it, so the conditions are picked to hit
// triples of the small left relation F both ways.  Every case pins
// the strategy the executor's cost rule takes from the actual sizes.
TEST(DifferenceStrategies, AntiProbeAndMergeMatchNaive) {
  RandomStoreOptions opts;
  opts.num_objects = 24;
  opts.num_triples = 8000;
  opts.num_data_values = 3;
  opts.seed = 23;
  TripleStore store = RandomTripleStore(opts);
  // F: a sparse sample of E, the first E triples whose predicate is
  // their object (the 2=3 case), and two triples E lacks.
  const ObjId o0 = store.FindObject("o0"), o1 = store.FindObject("o1");
  std::vector<Triple> f_rows;
  size_t i = 0, loops = 0;
  for (const Triple& t : *store.FindRelation("E")) {
    if (i++ % 1000 == 0 || (t.p == t.o && loops++ < 4)) f_rows.push_back(t);
  }
  for (const Triple& t : {Triple{o0, o1, o0}, Triple{o1, o0, o1}}) {
    if (!store.FindRelation("E")->Contains(t)) f_rows.push_back(t);
  }
  RelId f = store.AddRelation("F");
  for (const Triple& t : f_rows) store.Add(f, t.s, t.p, t.o);
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);

  const ExprPtr E = Expr::Rel("E"), F = Expr::Rel("F");
  const CondSet thetas = Where({Neq(Pos::P2, Pos::P1), Eq(Pos::P2, Pos::P3),
                                NeqConst(Pos::P1, o1)});
  const CondSet eta = Where({}, {DataEq(Pos::P1, Pos::P3)});
  const CondSet outer = Where({NeqConst(Pos::P1, o1), Neq(Pos::P1, Pos::P2)});
  const CondSet none = Where({EqConst(Pos::P1, o0), EqConst(Pos::P1, o1)});
  struct Case {
    const char* name;
    ExprPtr expr;
    const char* strategy;
    bool shrinks_f;  ///< F on the left, and the right side hits it
  };
  const Case cases[] = {
      {"bare scan of a second relation", Expr::Diff(F, E), "anti-probe",
       true},
      {"theta atoms", Expr::Diff(F, Expr::Select(E, thetas)), "anti-probe",
       true},
      {"eta atom", Expr::Diff(F, Expr::Select(E, eta)), "anti-probe", true},
      {"nested selections",
       Expr::Diff(F, Expr::Select(Expr::Select(E, eta), outer)),
       "anti-probe", true},
      {"empty left", Expr::Diff(Expr::Select(F, none), E), "anti-probe",
       false},
      {"large left",
       Expr::Diff(E, Expr::Select(E, Where({EqConst(Pos::P2, o0)}))),
       "merge", false},
      {"join on the right",
       Expr::Diff(F, Expr::Join(E, E, Spec(Pos::P1, Pos::P2, Pos::P3p,
                                           {Eq(Pos::P3, Pos::P1p)}))),
       "merge", false},
  };
  const size_t f_size = store.FindRelation("F")->size();
  auto naive = MakeNaiveEvaluator();
  for (const Case& c : cases) {
    auto want = naive->Eval(c.expr, store);
    ASSERT_TRUE(want.ok()) << c.name << ": " << want.status().ToString();
    if (c.shrinks_f) {
      EXPECT_LT(want->size(), f_size) << c.name;
      EXPECT_GT(want->size(), 0u) << c.name;
    }
    plan::PlanPtr p = plan::PlanExpr(c.expr, store);
    auto got = plan::ExecutePlan(*p, store);
    ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
    EXPECT_EQ(*want, *got) << c.name << "\n" << plan::Explain(*p);
    ASSERT_EQ(p->op, plan::PlanOp::kMinusOp) << c.name;
    ASSERT_NE(p->runtime.strategy, nullptr) << c.name;
    EXPECT_STREQ(p->runtime.strategy, c.strategy)
        << c.name << "\n" << plan::Explain(*p);
  }
}

// The galloping merge join against the naive engine.  A selection
// pinning only p is born sorted on its object, so joined on that
// column it merges with E's SPO run, or with another such selection.
// The predicates are picked by frequency, so the runs meet at ratios
// from 1:1 to over 1:1024 with the small run on either side — past
// 1:1024 the long run's cursor searches the whole run instead of
// galloping — and Zipf-skewed objects make keys many-to-many.  Every
// case must run as a merge.
TEST(MergeJoinStrategies, GallopingMergeMatchesNaive) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RandomStoreOptions opts;
    opts.num_objects = 600;
    opts.num_triples = 3000;
    opts.zipf_p = 1.3;
    opts.zipf_o = 0.8;
    opts.seed = seed * 37 + 1;
    TripleStore store = RandomTripleStore(opts);
    const TripleSet& e = *store.FindRelation("E");
    std::map<ObjId, size_t> freq;
    for (const Triple& t : e) ++freq[t.p];
    ObjId hot = 0, mid = 0, rare = 0, absent = 0;
    size_t hot_n = 0, rare_n = SIZE_MAX, mid_gap = SIZE_MAX;
    for (const auto& [pred, n] : freq) {
      if (n > hot_n) hot = pred, hot_n = n;
      if (n < rare_n) rare = pred, rare_n = n;
      const size_t gap = n > e.size() / 16 ? n - e.size() / 16 : e.size() / 16 - n;
      if (gap < mid_gap) mid = pred, mid_gap = gap;
    }
    while (freq.count(absent) > 0) ++absent;
    ASSERT_LT(rare_n * 1024, e.size()) << "seed " << seed;
    auto sel = [](ObjId pred) {
      return Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, pred)}));
    };
    auto on = [](std::vector<ObjConstraint> theta) {
      return Spec(Pos::P1, Pos::P2, Pos::P3p, std::move(theta));
    };
    const ObjConstraint obj_subj = Eq(Pos::P3, Pos::P1p);
    const ObjConstraint subj_obj = Eq(Pos::P1, Pos::P3p);
    const ExprPtr E = Expr::Rel("E");
    struct Case {
      const char* name;
      ExprPtr expr;
    };
    const Case cases[] = {
        {"sparse left", Expr::Join(sel(rare), E, on({obj_subj}))},
        {"sparse right", Expr::Join(E, sel(rare), on({subj_obj}))},
        {"mid left", Expr::Join(sel(mid), E, on({obj_subj}))},
        {"dense left", Expr::Join(sel(hot), E, on({obj_subj}))},
        {"dense right", Expr::Join(E, sel(hot), on({subj_obj}))},
        {"both stored", Expr::Join(E, E, on({obj_subj}))},
        {"many-to-many objects",
         Expr::Join(sel(hot), sel(mid),
                    Spec(Pos::P1, Pos::P2p, Pos::P1p,
                         {Eq(Pos::P3, Pos::P3p)}))},
        {"residual atom",
         Expr::Join(sel(mid), E, on({obj_subj, Neq(Pos::P1, Pos::P3p)}))},
        {"right one-sided filter",
         Expr::Join(sel(mid), E, on({obj_subj, Neq(Pos::P1p, Pos::P3p)}))},
        {"right one-sided constant",
         Expr::Join(sel(mid), E, on({obj_subj, EqConst(Pos::P2p, hot)}))},
        {"empty side", Expr::Join(sel(absent), E, on({obj_subj}))},
    };
    auto naive = MakeNaiveEvaluator();
    bool left_sparse = false, right_sparse = false;
    for (const Case& c : cases) {
      const std::string name = std::string(c.name) + ", seed " +
                               std::to_string(seed);
      auto want = naive->Eval(c.expr, store);
      ASSERT_TRUE(want.ok()) << name << ": " << want.status().ToString();
      plan::PlanPtr p = plan::PlanExpr(c.expr, store);
      auto got = plan::ExecutePlan(*p, store);
      ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
      EXPECT_EQ(*want, *got) << name << "\n" << plan::Explain(*p);
      ASSERT_EQ(p->op, plan::PlanOp::kMergeJoin)
          << name << "\n" << plan::Explain(*p);
      ASSERT_NE(p->runtime.strategy, nullptr) << name;
      EXPECT_STREQ(p->runtime.strategy, "merge")
          << name << "\n" << plan::Explain(*p);
      const size_t ln = p->children[0]->runtime.actual_rows;
      const size_t rn = p->children[1]->runtime.actual_rows;
      left_sparse = left_sparse || (ln > 0 && ln * 1024 < rn);
      right_sparse = right_sparse || (rn > 0 && rn * 1024 < ln);
    }
    EXPECT_TRUE(left_sparse) << "seed " << seed;
    EXPECT_TRUE(right_sparse) << "seed " << seed;
  }
}

// The hash join's flat table against the naive engine.  The build side of every join is a fresh selection keyed on
// its object column, so its permutation cannot be probed and the join
// must hash.  The cases cover one key with 10,000 build rows next to
// 500 singleton keys, an empty build side, a build side whose every row
// fails the right-side filter, and data keys: objects that share a rho
// value share a key, and 97 distinct values in a 512-bucket table share
// buckets.  Two non-walk stars run their rounds on the same table.
TEST(HashJoinStrategies, FlatTableMatchesNaive) {
  TripleStore store;
  auto obj = [&](const std::string& name) { return store.InternObject(name); };
  const RelId l = store.AddRelation("L");
  const RelId b = store.AddRelation("B");
  const ObjId heavy = obj("heavy"), q = obj("q"), r = obj("r");
  for (int i = 0; i < 10000; ++i) {
    store.Add(b, obj("x" + std::to_string(i)), r, heavy);
  }
  for (int i = 0; i < 500; ++i) {
    store.Add(b, obj("y" + std::to_string(i)), r, obj("k" + std::to_string(i)));
  }
  store.Add(l, obj("a0"), q, heavy);
  store.Add(l, obj("a1"), q, heavy);
  for (int i = 0; i < 300; ++i) {
    store.Add(l, obj("a" + std::to_string(i + 2)), q,
              obj("k" + std::to_string(i * 7 % 500)));
  }
  for (int i = 0; i < 100; ++i) {
    store.Add(l, obj("a" + std::to_string(i + 302)), q,
              obj("miss" + std::to_string(i)));
  }
  // Rows with s = o, which the probe side's selection s != o drops: its
  // estimate stays above B's, so the planner builds on B.
  for (int i = 0; i < 12000; ++i) {
    const ObjId wi = obj("w" + std::to_string(i));
    store.Add(l, wi, q, wi);
  }
  // Data-keyed relations: 300 build rows, 60 probe rows, rho drawn from
  // 97 values so that several objects carry each value.
  const RelId db = store.AddRelation("DB");
  const RelId dl = store.AddRelation("DL");
  Rng rng(97);
  std::vector<ObjId> valued;
  for (int i = 0; i < 400; ++i) {
    ObjId o = obj("v" + std::to_string(i));
    store.SetValue(o, DataValue::Int(static_cast<int64_t>(rng.Below(97))));
    valued.push_back(o);
  }
  auto pick = [&] { return valued[rng.Below(valued.size())]; };
  for (int i = 0; i < 300; ++i) store.Add(db, pick(), r, pick());
  for (int i = 0; i < 60; ++i) store.Add(dl, pick(), q, pick());
  // Z's rows all have s = o, so the selection s != o below is empty
  // while its estimate is the whole relation, smaller than B's: the
  // planner puts it on the build side.
  const RelId z = store.AddRelation("Z");
  for (int i = 0; i < 1000; ++i) {
    const ObjId zi = obj("z" + std::to_string(i));
    store.Add(z, zi, r, zi);
  }
  // A small base for the stars, at least 14 rows so the first round's
  // delta is too large to probe.
  const RelId sb = store.AddRelation("S");
  for (int i = 0; i < 80; ++i) store.Add(sb, pick(), pick(), pick());
  for (RelId rel = 0; rel < store.NumRelations(); ++rel) {
    store.RelationStats(rel);
  }

  // A scan selection: a fresh intermediate, whose permutations no
  // probe may use.
  auto fresh = [](const char* rel) {
    return Expr::Select(Expr::Rel(rel), Where({Neq(Pos::P1, Pos::P3)}));
  };
  const JoinSpec on_object =
      Spec(Pos::P1, Pos::P2p, Pos::P1p, {Eq(Pos::P3, Pos::P3p)});
  enum Kind { kJoin, kEmptyBuild, kFilteredBuild, kStar };
  struct Case {
    const char* name;
    ExprPtr expr;
    Kind kind;
    size_t build_rows;  ///< rows reaching the join's right (build) side
  };
  const Case cases[] = {
      {"heavy key beside singletons",
       Expr::Join(fresh("L"), fresh("B"), on_object), kJoin, 10500},
      {"empty build side", Expr::Join(fresh("B"), fresh("Z"), on_object),
       kEmptyBuild, 0},
      {"build side filtered to nothing",
       Expr::Join(fresh("L"), fresh("B"),
                  Spec(Pos::P1, Pos::P2p, Pos::P1p,
                       {Eq(Pos::P3, Pos::P3p), EqConst(Pos::P2p, q)})),
       kFilteredBuild, 10500},
      {"data keys sharing buckets",
       Expr::Join(Expr::Rel("DL"), Expr::Rel("DB"),
                  Spec(Pos::P1, Pos::P3, Pos::P1p, {},
                       {DataEq(Pos::P3, Pos::P3p)})),
       kJoin, 60},
      {"right star, object key",
       Expr::StarRight(Expr::Rel("S"), Spec(Pos::P1, Pos::P2p, Pos::P3p,
                                            {Eq(Pos::P3, Pos::P1p)})),
       kStar, 0},
      {"left star, data key",
       Expr::StarLeft(Expr::Rel("S"),
                      Spec(Pos::P1, Pos::P2, Pos::P3p, {},
                           {DataEq(Pos::P3, Pos::P1p)})),
       kStar, 0},
  };
  auto naive = MakeNaiveEvaluator();
  for (const Case& c : cases) {
    auto want = naive->Eval(c.expr, store);
    ASSERT_TRUE(want.ok()) << c.name << ": " << want.status().ToString();
    plan::PlanPtr p = plan::PlanExpr(c.expr, store);
    auto got = plan::ExecutePlan(*p, store);
    ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
    EXPECT_EQ(*want, *got) << c.name << "\n" << plan::Explain(*p);
    if (c.kind == kStar) {
      ASSERT_EQ(p->op, plan::PlanOp::kFixpointStar) << c.name;
      EXPECT_GE(p->runtime.hash_rounds, 1u) << c.name;
      continue;
    }
    ASSERT_NE(p->runtime.strategy, nullptr) << c.name;
    EXPECT_STREQ(p->runtime.strategy, "hash")
        << c.name << "\n" << plan::Explain(*p);
    EXPECT_EQ(want->empty(), c.kind != kJoin) << c.name;
    EXPECT_EQ(p->children[1]->runtime.actual_rows, c.build_rows)
        << c.name << "\n" << plan::Explain(*p);
  }
}

// Resource guards fire instead of looping or exhausting memory.
TEST(EvalGuards, UniverseGuard) {
  RandomStoreOptions opts;
  opts.num_objects = 600;
  opts.num_triples = 2000;
  TripleStore store = RandomTripleStore(opts);
  EvalOptions eopts;
  eopts.max_result_triples = 1'000'000;  // 600^3 >> guard
  auto engine = MakeSmartEvaluator(eopts);
  auto r = engine->Eval(Expr::Universe(), store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalGuards, UnknownRelation) {
  TripleStore store;
  store.Add("E", "a", "b", "c");
  for (auto make : {MakeNaiveEvaluator, MakeSmartEvaluator,
                    MakeMatrixEvaluator}) {
    auto engine = make({});
    auto r = engine->Eval(Expr::Rel("nope"), store);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }
}

TEST(EvalGuards, NonUnarySelectionRejected) {
  TripleStore store;
  store.Add("E", "a", "b", "c");
  CondSet bad;
  bad.theta.push_back(Eq(Pos::P1, Pos::P1p));
  auto engine = MakeSmartEvaluator();
  auto r = engine->Eval(Expr::Select(Expr::Rel("E"), bad), store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace trial
