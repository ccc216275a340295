// E23 — the repository's master invariant: the three QueryComputation
// engines (paper-faithful matrix, naive nested-loop, optimized hash /
// semi-naive with fragment fast paths) compute identical results on
// randomized expressions and stores, with and without the optimizer.

#include <gtest/gtest.h>

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

// Thread-count invariance — the parallel kernels' determinism contract:
// with min_parallel_items forced to 1 so the join probe loop and the
// semi-naive delta expansion take their parallel branches even on tiny
// stores, results are identical for 1, 2 and 4 threads (and to the
// stock serial engine) across random TriAL expressions, stars
// included, on Zipf-skewed stores.
// The threaded evaluations run through the plan executor directly —
// plan::PlanExpr + plan::ExecutePlan, the code path the smart engine
// shims to — so the invariance property is pinned to the plan layer.
TEST(ParallelInvariance, PlanExecutorResultsAreThreadCountInvariant) {
  auto eval_plan = [](const ExprPtr& e, const TripleStore& store,
                      size_t threads) {
    ExecLimits limits;
    limits.exec.num_threads = threads;
    limits.exec.min_parallel_items = 1;
    plan::PlanPtr p = plan::PlanExpr(e, store);
    return plan::ExecutePlan(*p, store, limits);
  };
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

    auto serial = MakeSmartEvaluator();  // stock defaults: serial path
    for (int i = 0; i < 8; ++i) {
      ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
      auto r0 = serial->Eval(e, store);
      auto r1 = eval_plan(e, store, 1);
      auto r2 = eval_plan(e, store, 2);
      auto r4 = eval_plan(e, store, 4);
      ASSERT_TRUE(r0.ok()) << r0.status().ToString() << "\n" << e->ToString();
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      ASSERT_TRUE(r2.ok()) << r2.status().ToString();
      ASSERT_TRUE(r4.ok()) << r4.status().ToString();
      EXPECT_EQ(*r0, *r1) << "serial vs 1-thread on " << e->ToString();
      EXPECT_EQ(*r1, *r2) << "1 vs 2 threads on " << e->ToString();
      EXPECT_EQ(*r1, *r4) << "1 vs 4 threads on " << e->ToString();
    }
  }
}

// MinusOp's two strategies against the naive engine at 1, 2 and 4
// threads.  The anti-probe never runs the right side: it keeps a left
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
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      ExecLimits limits;
      limits.exec.num_threads = threads;
      limits.exec.min_parallel_items = 1;
      plan::PlanPtr p = plan::PlanExpr(c.expr, store);
      auto got = plan::ExecutePlan(*p, store, limits);
      ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
      EXPECT_EQ(*want, *got) << c.name << ", " << threads << " threads\n"
                             << plan::Explain(*p);
      ASSERT_EQ(p->op, plan::PlanOp::kMinusOp) << c.name;
      ASSERT_NE(p->runtime.strategy, nullptr) << c.name;
      EXPECT_STREQ(p->runtime.strategy, c.strategy)
          << c.name << "\n" << plan::Explain(*p);
    }
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
