// E07/E08: machine checks of the capturing theorems.
//
// Proposition 2 — TriAL ≡ nonrecursive TripleDatalog¬ — and Theorem 2 —
// TriAL* ≡ ReachTripleDatalog¬ — are exercised by translating random
// expressions to Datalog (and hand-written programs to TriAL) and
// verifying both sides compute identical triple sets on random stores.

#include <gtest/gtest.h>

#include <string>

#include "core/eval.h"
#include "core/builder.h"
#include "datalog/eval.h"
#include "datalog/from_trial.h"
#include "datalog/parser.h"
#include "datalog/to_trial.h"
#include "graph/generators.h"
#include "naive_datalog.h"
#include "rdf/fixtures.h"
#include "util/rng.h"

namespace trial {
namespace {

using datalog::ParseProgram;
using datalog::ProgramToTriAL;
using datalog::TriALToDatalog;

// The naive bottom-up evaluator's value of `pred`.  datalog::EvalProgram
// runs these programs as the plan of their TriAL(*) translation, so
// comparing it with the smart engine would check the plan route against
// itself; the oracle is the independent side.
Result<TripleSet> OracleAnswer(const datalog::Program& program,
                               const TripleStore& store,
                               const std::string& pred = "ans") {
  return datalog::NaiveDatalog(store).Eval(program, pred);
}

// Random TriAL(*) expression generator over relation "E".
ExprPtr RandomExpr(Rng* rng, int depth, bool allow_star) {
  auto rand_pos = [&](bool both_sides) {
    int limit = both_sides ? 6 : 3;
    return static_cast<Pos>(rng->Below(limit));
  };
  auto rand_spec = [&] {
    JoinSpec spec;
    spec.out = {rand_pos(true), rand_pos(true), rand_pos(true)};
    size_t n_theta = rng->Below(3);
    for (size_t i = 0; i < n_theta; ++i) {
      spec.cond.theta.push_back(ObjConstraint{
          ObjTerm::P(rand_pos(true)), ObjTerm::P(rand_pos(true)),
          rng->Chance(3, 4)});
    }
    if (rng->Chance(1, 3)) {
      spec.cond.eta.push_back(DataConstraint{
          DataTerm::P(rand_pos(true)), DataTerm::P(rand_pos(true)),
          rng->Chance(3, 4)});
    }
    return spec;
  };
  if (depth <= 0) return Expr::Rel("E");
  switch (rng->Below(allow_star ? 7 : 5)) {
    case 0:
      return Expr::Rel("E");
    case 1: {
      CondSet cond;
      cond.theta.push_back(ObjConstraint{ObjTerm::P(rand_pos(false)),
                                         ObjTerm::P(rand_pos(false)),
                                         rng->Chance(3, 4)});
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

class RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

// TriAL --(Prop 2 / Thm 2)--> Datalog: identical answers.
TEST_P(RoundTripTest, ExprToDatalogAgrees) {
  Rng rng(GetParam());
  RandomStoreOptions opts;
  opts.num_objects = 8;
  opts.num_triples = 20;
  opts.seed = GetParam() * 977 + 13;
  TripleStore store = RandomTripleStore(opts);

  auto engine = MakeSmartEvaluator();
  for (int trial_i = 0; trial_i < 6; ++trial_i) {
    ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
    auto direct = engine->Eval(e, store);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    auto translated = TriALToDatalog(e, store);
    ASSERT_TRUE(translated.ok())
        << translated.status().ToString() << "\nexpr: " << e->ToString();
    auto via_datalog =
        OracleAnswer(translated->program, store, translated->answer_pred);
    ASSERT_TRUE(via_datalog.ok()) << via_datalog.status().ToString()
                                  << "\nexpr: " << e->ToString()
                                  << "\nprogram:\n"
                                  << translated->program.ToString();
    EXPECT_EQ(*direct, *via_datalog)
        << "expr: " << e->ToString() << "\nprogram:\n"
        << translated->program.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Datalog --(Prop 2)--> TriAL on hand-written nonrecursive programs.
TEST(DatalogToTriAL, NonRecursiveAgrees) {
  TripleStore store = TransportStore();
  const char* programs[] = {
      "ans(X, Y, Z) :- E(X, Y, Z).",
      "ans(X, Q, Z) :- E(X, P, Y), E(Y2, Q, Z), Y = Y2.",
      "ans(X, Y, Z) :- E(X, Y, Z), not E(Z, Y, X).",
      "ans(X, Y, Z) :- E(X, Y, Z), X != Z.",
      "ans(X, P, Y) :- E(X, P, Y), P = part_of.\n"
      "ans(X, P, Y) :- E(X, P, Y), E(P, Q, Z).",
      "mid(X, P, Y) :- E(X, P, Y), E(P, Q, Z), Q = part_of.\n"
      "ans(X, P, Z) :- mid(X, P, Y), E(Y, Q, Z).",
  };
  auto engine = MakeSmartEvaluator();
  for (const char* text : programs) {
    auto prog = ParseProgram(text);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    auto direct = OracleAnswer(*prog, store);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString() << "\n" << text;
    auto expr = ProgramToTriAL(*prog, store);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString() << "\n" << text;
    auto via_trial = engine->Eval(*expr, store);
    ASSERT_TRUE(via_trial.ok()) << via_trial.status().ToString();
    EXPECT_EQ(*direct, *via_trial) << text << "\n-> " << (*expr)->ToString();
  }
}

// Datalog --(Thm 2)--> TriAL* on reach-shaped recursive programs.
TEST(DatalogToTriAL, ReachProgramsAgree) {
  TripleStore store = TransportStore();
  const char* programs[] = {
      // Reach→ (Example 4).
      "ans(X, Y, Z) :- E(X, Y, Z).\n"
      "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W).",
      // Same-middle reach.
      "ans(X, Y, Z) :- E(X, Y, Z).\n"
      "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), Y = P.",
      // Left-star flavour: recursive atom second.
      "ans(X, Y, Z) :- E(X, Y, Z).\n"
      "ans(X, Y, W) :- E(X, Y, Z), ans(Z, P, W).",
      // With a data-similarity constraint along the path.
      "ans(X, Y, Z) :- E(X, Y, Z).\n"
      "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), ~(X, Z).",
  };
  auto engine = MakeSmartEvaluator();
  for (const char* text : programs) {
    auto prog = ParseProgram(text);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    auto direct = OracleAnswer(*prog, store);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString() << "\n" << text;
    auto expr = ProgramToTriAL(*prog, store);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString() << "\n" << text;
    EXPECT_TRUE((*expr)->IsRecursive());
    auto via_trial = engine->Eval(*expr, store);
    ASSERT_TRUE(via_trial.ok()) << via_trial.status().ToString();
    EXPECT_EQ(*direct, *via_trial) << text << "\n-> " << (*expr)->ToString();
  }
}

// Full circle: expr -> Datalog -> expr agrees with the original on a
// random store (the two capture directions compose).
TEST(DatalogToTriAL, FullCircle) {
  Rng rng(42);
  RandomStoreOptions sopts;
  sopts.num_objects = 7;
  sopts.num_triples = 18;
  TripleStore store = RandomTripleStore(sopts);
  auto engine = MakeSmartEvaluator();
  for (int i = 0; i < 10; ++i) {
    ExprPtr e = RandomExpr(&rng, 2, /*allow_star=*/true);
    auto direct = engine->Eval(e, store);
    ASSERT_TRUE(direct.ok());
    auto dl = TriALToDatalog(e, store);
    ASSERT_TRUE(dl.ok()) << dl.status().ToString();
    auto back = ProgramToTriAL(dl->program, store, dl->answer_pred);
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\nprogram:\n"
                           << dl->program.ToString();
    auto again = engine->Eval(*back, store);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*direct, *again) << e->ToString();
  }
}

}  // namespace
}  // namespace trial
