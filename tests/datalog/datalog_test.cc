// Parser, analysis and evaluation tests for TripleDatalog¬ /
// ReachTripleDatalog¬ (Section 4), on both of EvalProgram's routes: the
// plan of the TriAL(*) translation and the direct engine.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/eval.h"
#include "core/plan/plan.h"
#include "datalog/analysis.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/to_trial.h"
#include "graph/generators.h"
#include "rdf/fixtures.h"
#include "util/metrics.h"

namespace trial {
namespace datalog {
namespace {

Program MustParse(std::string_view text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : Program{};
}

TEST(DatalogParser, ParsesRuleShapes) {
  Program p = MustParse(R"(
    % reachability over the object position
    ans(X, Y, Z) :- E(X, Y, Z).
    ans(X, Y, Zp) :- ans(X, Y, Z), E(Z, P, Zp).
  )");
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.rules[0].head.pred, "ans");
  EXPECT_EQ(p.rules[1].body.size(), 2u);
}

TEST(DatalogParser, ParsesConstraintsAndNegation) {
  Program p = MustParse(
      "q(X, Y, Z) :- E(X, Y, Z), not E(Z, Y, X), ~(X, Z), Y != Z, "
      "X = edinburgh.\n");
  ASSERT_EQ(p.rules.size(), 1u);
  const Rule& r = p.rules[0];
  ASSERT_EQ(r.body.size(), 5u);
  EXPECT_FALSE(r.body[1].positive);
  EXPECT_EQ(r.body[2].kind, Literal::Kind::kSim);
  EXPECT_EQ(r.body[3].kind, Literal::Kind::kEq);
  EXPECT_FALSE(r.body[3].positive);
  EXPECT_TRUE(r.body[4].lhs.is_var);   // X is a variable
  EXPECT_FALSE(r.body[4].rhs.is_var);  // lowercase "edinburgh" is a constant
}

TEST(DatalogParser, RoundTripsThroughToString) {
  Program p = MustParse(
      "ans(X, Y, Z) :- E(X, Y, Z), not E(Z, Y, X), ~(X, Z), X != Y.\n");
  Program p2 = MustParse(p.ToString());
  EXPECT_EQ(p.ToString(), p2.ToString());
}

TEST(DatalogParser, RejectsGarbage) {
  EXPECT_FALSE(ParseProgram("ans(X, Y Z) :- E(X, Y, Z).").ok());
  EXPECT_FALSE(ParseProgram("ans(X,Y,Z) :- E(X,Y,Z)").ok());  // missing '.'
  EXPECT_FALSE(ParseProgram("ans(X,Y,Z) := E(X,Y,Z).").ok());
}

TEST(DatalogAnalysis, ClassifiesNonRecursive) {
  Program p = MustParse(R"(
    a(X, Y, Z) :- E(X, Y, Z), E(Z, Y, X).
    b(X, Y, Z) :- a(X, Y, Z), not E(X, X, X).
  )");
  auto info = AnalyzeProgram(p);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->cls, ProgramClass::kNonRecursiveTripleDatalog);
  EXPECT_TRUE(info->recursive_preds.empty());
}

TEST(DatalogAnalysis, ClassifiesReachShape) {
  Program p = MustParse(R"(
    s(X, Y, Z) :- E(X, Y, Z).
    s(X, Y, W) :- s(X, Y, Z), E(Z, P, W), ~(Y, P).
  )");
  auto info = AnalyzeProgram(p);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->cls, ProgramClass::kReachTripleDatalog);
  EXPECT_EQ(info->recursive_preds.count("s"), 1u);
}

TEST(DatalogAnalysis, FlagsNonReachRecursion) {
  // Three rules for the recursive predicate: outside the two-rule shape.
  Program p = MustParse(R"(
    s(X, Y, Z) :- E(X, Y, Z).
    s(X, Y, W) :- s(X, Y, Z), E(Z, P, W).
    s(X, Y, W) :- s(X, Y, Z), E(W, P, Z).
  )");
  auto info = AnalyzeProgram(p);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->cls, ProgramClass::kGeneralRecursive);
}

TEST(DatalogAnalysis, RejectsMutualRecursion) {
  Program p = MustParse(R"(
    a(X, Y, Z) :- b(X, Y, Z).
    b(X, Y, Z) :- a(X, Y, Z), E(X, Y, Z).
    b(X, Y, Z) :- E(X, Y, Z).
  )");
  EXPECT_FALSE(AnalyzeProgram(p).ok());
}

TEST(DatalogAnalysis, RejectsUnsafeRules) {
  EXPECT_FALSE(AnalyzeProgram(MustParse("a(X, Y, W) :- E(X, Y, Z).")).ok());
  EXPECT_FALSE(
      AnalyzeProgram(MustParse("a(X, Y, Z) :- E(X, Y, Z), W != X.")).ok());
  EXPECT_FALSE(AnalyzeProgram(MustParse("a(X, Y) :- E(X, Y, Z).")).ok());
}

TEST(DatalogEval, CopiesRelation) {
  TripleStore store = TransportStore();
  Program p = MustParse("ans(X, Y, Z) :- E(X, Y, Z).");
  auto r = EvalProgram(p, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, *store.FindRelation("E"));
}

TEST(DatalogEval, JoinWithConstantAndConstraints) {
  TripleStore store = TransportStore();
  // Cities reachable in two hops ignoring the operator hierarchy.
  Program p = MustParse(R"(
    hop2(X, P, Z) :- E(X, P, Y), E(Y, Q, Z), P != part_of, Q != part_of.
  )");
  auto r = EvalProgram(p, store, "hop2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // St_Andrews -> Edinburgh -> London and Edinburgh -> London -> Brussels.
  EXPECT_EQ(r->size(), 2u);
}

TEST(DatalogEval, ReachabilityFixpoint) {
  TripleStore store = TransportStore();
  // part_of transitive closure: svc/company reachable through part_of.
  Program p = MustParse(R"(
    reach(X, Y, Z) :- E(X, Y, Z).
    reach(X, Y, W) :- reach(X, Y, Z), E(Z, P, W), P = part_of.
  )");
  auto r = EvalProgram(p, store, "reach");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ObjId t1 = store.FindObject("Train_Op_1");
  ObjId ne = store.FindObject("NatExpress");
  ObjId po = store.FindObject("part_of");
  // Train_Op_1 -part_of-> EastCoast -part_of-> NatExpress.
  EXPECT_TRUE(r->Contains(Triple{t1, po, ne}));
}

TEST(DatalogEval, NegationUsesActiveDomain) {
  TripleStore store;
  store.Add("E", "a", "b", "c");
  Program p = MustParse("n(X, Y, Z) :- E(X, Y, Z), not E(Z, Y, X).");
  auto r = EvalProgram(p, store, "n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);  // (a,b,c) qualifies since (c,b,a) absent

  store.Add("E", "c", "b", "a");
  auto r2 = EvalProgram(p, store, "n");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 0u);
}

TEST(DatalogEval, SimLiteralComparesDataValues) {
  TripleStore store;
  Triple t = store.Add("E", "a", "b", "c");
  store.SetValue(t.s, DataValue::Int(7));
  store.SetValue(t.o, DataValue::Int(7));
  Triple u = store.Add("E", "x", "y", "z");
  store.SetValue(u.s, DataValue::Int(1));
  store.SetValue(u.o, DataValue::Int(2));

  Program p = MustParse("same(X, Y, Z) :- E(X, Y, Z), ~(X, Z).");
  auto r = EvalProgram(p, store, "same");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains(t));
}

TEST(DatalogEval, UnknownPredicateReported) {
  TripleStore store = TransportStore();
  Program p = MustParse("ans(X, Y, Z) :- nosuch(X, Y, Z).");
  auto r = EvalProgram(p, store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ---- the plan route against independent oracles ----------------------

// The direct engine's value of `pred` — the oracle independent of the
// plan route that EvalProgram takes for routable programs.
Result<TripleSet> DirectAnswer(const Program& p, const TripleStore& store,
                               const std::string& pred,
                               const DatalogOptions& opts = {}) {
  auto all = EvalProgramAll(p, store, opts);
  if (!all.ok()) return all.status();
  auto it = all->find(pred);
  if (it == all->end()) return Status::NotFound("undefined: " + pred);
  return it->second;
}

uint64_t Fallbacks() {
  return MetricsRegistry::Global().GetCounter("datalog.fallbacks")->value();
}

// Turns the metrics registry on for one test and restores it after.
class MetricsOn {
 public:
  MetricsOn() : was_(MetricsEnabled()) { SetMetricsEnabled(true); }
  ~MetricsOn() { SetMetricsEnabled(was_); }

 private:
  bool was_;
};

// The routable programs of the Datalog batteries (this file,
// roundtrip_test, trial_store's demo, the perfbench reach program),
// plus shapes that exercise the translator's corners: permuting
// single-atom heads, single-atom chains, left stars, constants the
// store lacks.  Every one is nonrecursive TripleDatalog or
// ReachTripleDatalog without a negated atom; the answer is "ans".
const char* const kRoutablePrograms[] = {
    "ans(X, Y, Z) :- E(X, Y, Z).",
    "ans(X, Q, Z) :- E(X, P, Y), E(Y2, Q, Z), Y = Y2.",
    "ans(X, Y, Z) :- E(X, Y, Z), X != Z.",
    "ans(X, P, Z) :- E(X, P, Y), E(Y, Q, Z), P != part_of, Q != part_of.",
    "ans(X, P, Y) :- E(X, P, Y), P = part_of.\n"
    "ans(X, P, Y) :- E(X, P, Y), E(P, Q, Z).",
    "mid(X, P, Y) :- E(X, P, Y), E(P, Q, Z), Q = part_of.\n"
    "ans(X, P, Z) :- mid(X, P, Y), E(Y, Q, Z).",
    "ans(X, Y, Z) :- E(X, Y, Z), ~(X, Z).",
    "ans(Z, Y, X) :- E(X, Y, Z), X != Y.",
    "a(X, Y, Z) :- E(X, Y, Z), E(Z, Y, W).\n"
    "b(Y, X, Z) :- a(X, Y, Z).\n"
    "ans(X, Y, Y) :- b(X, Y, Z).",
    "ans(X, Y, Z) :- E(X, Y, Z), Y != nosuch, gone != absent.",
    "ans(X, Y, Z) :- E(X, Y, Z), gone = gone, X = X.",
    "ans(X, Y, Z) :- E(X, Y, Z), gone != gone.",
    "ans(X, Y, Z) :- E(X, Y, Z).\n"
    "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W).",
    "ans(X, Y, Z) :- E(X, Y, Z).\n"
    "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), Y = P.",
    "ans(X, Y, Z) :- E(X, Y, Z).\n"
    "ans(X, Y, W) :- E(X, Y, Z), ans(Z, P, W).",
    "ans(X, Y, Z) :- E(X, Y, Z).\n"
    "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), ~(X, Z).",
    "ans(X, Y, Z) :- E(X, Y, Z).\n"
    "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), P = part_of.",
    "hopo(X, C, Y) :- E(X, S, Y), E(S, P, C), P = part_of.\n"
    "hopo(X, P, Y) :- E(X, P, Y), P = part_of.\n"
    "opr(X, C, Y) :- hopo(X, C, Y).\n"
    "opr(X, C2, Y) :- opr(X, C, Y), hopo(C, P, C2), P = part_of.\n"
    "ans(X, C, Z) :- opr(X, C, Z), C != part_of.",
    // Predicates used more than once: their translation is shared.
    "a(X, Y, Z) :- E(X, Y, W), E(W, Q, Z).\n"
    "ans(X, Y, Z) :- a(X, Y, W), a(W, Q, Z).",
    "a(X, Y, Z) :- E(X, Y, Z), X != Z.\n"
    "ans(X, Y, Z) :- a(X, Y, Z).\n"
    "ans(Z, Y, X) :- a(X, Y, Z).",
    "h(X, P, Y) :- E(X, P, Y), P != part_of.\n"
    "r(X, P, Y) :- h(X, P, Y).\n"
    "r(X, P, Z) :- r(X, P, Y), h(Y, P, Z).\n"
    "ans(X, P, Z) :- r(X, P, Z), h(Z, Q, W).",
};

std::vector<TripleStore> BatteryStores() {
  std::vector<TripleStore> stores;
  stores.push_back(TransportStore());
  for (uint64_t seed : {3u, 17u}) {
    RandomStoreOptions o;
    o.num_objects = 12;
    o.num_triples = 60;
    o.num_data_values = 3;
    o.zipf_p = 1.2;
    o.zipf_o = 0.8;
    o.seed = seed;
    stores.push_back(RandomTripleStore(o));
  }
  return stores;
}

// Every routable program takes the plan route (no fallback), and its
// answer is byte-identical to the direct engine's and to the naive
// engine on the translation.
TEST(DatalogPlanRoute, MatchesDirectEngineAndNaiveEvaluator) {
  MetricsOn metrics;
  auto naive = MakeNaiveEvaluator();
  for (const TripleStore& store : BatteryStores()) {
    for (const char* text : kRoutablePrograms) {
      Program p = MustParse(text);
      ASSERT_TRUE(PlanProgram(p, store).ok())
          << PlanProgram(p, store).status().ToString() << "\n" << text;
      auto expr = ProgramToTriAL(p, store);
      ASSERT_TRUE(expr.ok()) << expr.status().ToString();
      auto oracle = naive->Eval(*expr, store);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      auto direct = DirectAnswer(p, store, "ans");
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ(*direct, *oracle) << text;
      const uint64_t before = Fallbacks();
      auto planned = EvalProgram(p, store, "ans");
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      EXPECT_EQ(Fallbacks(), before) << text;
      EXPECT_EQ(planned->triples(), direct->triples()) << text;
    }
  }
}

// The adaptive flag routes through ExecuteAdaptive; the answer is the
// same, on a cold and on a feedback-warmed plan.
TEST(DatalogPlanRoute, AdaptiveExecutionAgrees) {
  TripleStore store = TransportStore();
  DatalogOptions opts;
  opts.adaptive = true;
  for (const char* text : kRoutablePrograms) {
    Program p = MustParse(text);
    auto direct = DirectAnswer(p, store, "ans");
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    for (int pass = 0; pass < 2; ++pass) {
      auto planned = EvalProgram(p, store, "ans", opts);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      EXPECT_EQ(*planned, *direct) << text << " pass " << pass;
    }
  }
}

// Programs without a complement-free TriAL(*) translation fall back to
// the direct engine, say why, count the fallback, and return the
// direct engine's answer.
TEST(DatalogPlanRoute, FallbacksRunTheDirectEngine) {
  MetricsOn metrics;
  TripleStore store = TransportStore();
  struct Case {
    const char* text;
    StatusCode why;
  } cases[] = {
      // A negated atom: its translation is the complement U - E.
      {"ans(X, Y, Z) :- E(X, Y, Z), not E(Z, Y, X).",
       StatusCode::kUnimplemented},
      // General recursion: three rules for the recursive predicate.
      {"ans(X, Y, Z) :- E(X, Y, Z).\n"
       "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W).\n"
       "ans(X, Y, W) :- ans(X, Y, Z), E(W, P, Z).",
       StatusCode::kUnimplemented},
      // A ~ literal on an object the store lacks: the translator rejects.
      {"ans(X, Y, Z) :- E(X, Y, Z), ~(X, nosuch).",
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    Program p = MustParse(c.text);
    auto pl = PlanProgram(p, store);
    ASSERT_FALSE(pl.ok()) << c.text;
    EXPECT_EQ(pl.status().code(), c.why) << pl.status().ToString();
    EXPECT_FALSE(pl.status().message().empty());
    auto direct = DirectAnswer(p, store, "ans");
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    const uint64_t before = Fallbacks();
    auto r = EvalProgram(p, store);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Fallbacks(), before + 1) << c.text;
    EXPECT_EQ(*r, *direct) << c.text;
  }
}

// Chained reuse: each predicate joins the previous one with itself, so
// the translation's unfolded tree doubles per level (2^25 leaves here).
// The plan computes each predicate once, as the direct engine does.
TEST(DatalogPlanRoute, ChainedReuseRunsEachPredicateOnce) {
  MetricsOn metrics;
  TripleStore store = TransportStore();
  std::string text = "a1(X, Y, Z) :- E(X, Y, W), E(W, Q, Z).\n";
  for (int k = 1; k < 25; ++k) {
    const std::string prev = "a" + std::to_string(k);
    text += "a" + std::to_string(k + 1) + "(X, Y, Z) :- " + prev +
            "(X, Y, W), " + prev + "(W, Q, Z).\n";
  }
  text += "ans(X, Y, Z) :- a25(X, Y, Z), X != Z.\n";
  Program p = MustParse(text);
  auto pl = PlanProgram(p, store);
  ASSERT_TRUE(pl.ok()) << pl.status().ToString();
  EXPECT_LT((*pl)->TreeSize(), 200u) << plan::Explain(**pl);
  EXPECT_NE(plan::Explain(**pl).find("SharedScan #"), std::string::npos);
  auto direct = DirectAnswer(p, store, "ans");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  for (bool adaptive : {false, true}) {
    DatalogOptions opts;
    opts.adaptive = adaptive;
    const uint64_t before = Fallbacks();
    auto r = EvalProgram(p, store, "ans", opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Fallbacks(), before);
    EXPECT_EQ(*r, *direct) << "adaptive=" << adaptive;
  }
}

// The result-size guard holds on both routes: the plan route (a join,
// and a same-middle walk star) and the direct engine.
TEST(DatalogPlanRoute, TinyResultCapIsExhaustedOnBothRoutes) {
  TripleStore store = TransportStore();
  DatalogOptions opts;
  opts.max_result_triples = 2;
  for (const char* text : {
           "ans(X, Q, Z) :- E(X, P, Y), E(Y, Q, Z).",
           "ans(X, Y, Z) :- E(X, Y, Z).\n"
           "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), Y = P.",
           "ans(X, Y, Z) :- E(X, Y, Z), not E(Z, Y, X).",
       }) {
    Program p = MustParse(text);
    auto routed = EvalProgram(p, store, "ans", opts);
    ASSERT_FALSE(routed.ok()) << text;
    EXPECT_EQ(routed.status().code(), StatusCode::kResourceExhausted)
        << routed.status().ToString();
    auto direct = DirectAnswer(p, store, "ans", opts);
    ASSERT_FALSE(direct.ok()) << text;
    EXPECT_EQ(direct.status().code(), StatusCode::kResourceExhausted)
        << direct.status().ToString();
  }
}

// The star kernel stops at the cap itself: the executor checks no star
// output after the fact, so the plan of the reach program run under a
// tiny cap fails inside the label-index walk.
TEST(DatalogPlanRoute, ReachKernelStopsAtTheCap) {
  TripleStore store = TransportStore();
  Program p = MustParse(
      "ans(X, Y, Z) :- E(X, Y, Z).\n"
      "ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), Y = P.");
  auto pl = PlanProgram(p, store);
  ASSERT_TRUE(pl.ok()) << pl.status().ToString();
  ASSERT_EQ((*pl)->op, plan::PlanOp::kReachIndexScan) << plan::Explain(**pl);
  EXPECT_TRUE((*pl)->reach_same_middle);
  auto full = plan::ExecutePlan(**pl, store);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full->size(), 2u);
  ExecLimits limits;
  limits.max_result_triples = 2;
  auto r = plan::ExecutePlan(**pl, store, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// On the plan route, the Datalog metrics describe the answer.
TEST(DatalogPlanRoute, RecordsProgramMetrics) {
  MetricsOn metrics;
  TripleStore store = TransportStore();
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* rows = reg.GetHistogram("datalog.derived_rows");
  Histogram* ns = reg.GetHistogram("datalog.program_ns");
  const uint64_t programs = reg.GetCounter("datalog.programs")->value();
  const uint64_t rows_count = rows->count();
  const uint64_t rows_sum = rows->sum();
  const uint64_t ns_count = ns->count();
  Histogram* result_rows = reg.GetHistogram("exec.result_rows");
  const uint64_t result_rows_count = result_rows->count();
  // A join answer comes back from the executor unnormalized; EvalProgram
  // counts it anyway, so exec.result_rows observes it too.
  Program p = MustParse(kRoutablePrograms[1]);
  auto r = EvalProgram(p, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(result_rows->count(), result_rows_count + 1);
  EXPECT_EQ(reg.GetCounter("datalog.programs")->value(), programs + 1);
  EXPECT_EQ(rows->count(), rows_count + 1);
  EXPECT_EQ(rows->sum(), rows_sum + r->size());
  EXPECT_EQ(ns->count(), ns_count + 1);
}

}  // namespace
}  // namespace datalog
}  // namespace trial
