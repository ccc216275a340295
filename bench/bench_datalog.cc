// E12 — Corollary 1: Datalog programs evaluate within the algebra's
// bounds through the linear-time translation of Proposition 2/Theorem 2:
// O(|Π|·|T|²) for TripleDatalog¬ and O(|Π|·|T|³) for
// ReachTripleDatalog¬.
//
// Measures (a) translation time as the program grows (should be ~linear
// in |Π|), (b) end-to-end evaluation of a ReachTripleDatalog¬ program
// translated to TriAL*, and (c) a general-recursive program, outside
// TriAL*, on the plan layer's semi-naive FixpointStar node.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/eval.h"
#include "core/plan/plan.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/to_trial.h"
#include "graph/generators.h"

namespace trial {
namespace {

const char* kReachProgram = R"(
  ans(X, Y, Z) :- E(X, Y, Z).
  ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W), Y = P.
)";

// Three rules for the recursive predicate: reachability along E's
// edges in both directions, outside the two-rule reach shape.
const char* kGeneralProgram = R"(
  ans(X, Y, Z) :- E(X, Y, Z).
  ans(X, Y, W) :- ans(X, Y, Z), E(Z, P, W).
  ans(X, Y, W) :- ans(X, Y, Z), E(W, P, Z).
)";

TripleStore TransportAt(size_t n) {
  TransportOptions opts;
  opts.num_cities = n / 2;
  opts.num_services = n / 20 + 2;
  opts.seed = 29;
  return TransportNetwork(opts);
}

// A chain program: p0 copies E, p_{i+1} joins p_i with E.
std::string ChainProgram(int k) {
  std::string out = "p0(X, Y, Z) :- E(X, Y, Z).\n";
  for (int i = 1; i <= k; ++i) {
    out += "p" + std::to_string(i) + "(X, Y, W) :- p" +
           std::to_string(i - 1) + "(X, Y, Z), E(Z, P, W).\n";
  }
  return out;
}

void Run() {
  bench::Banner("Corollary 1: Datalog via linear-time translation",
                "TripleDatalog in O(|P| . |T|^2); ReachTripleDatalog in "
                "O(|P| . |T|^3); translation itself linear in |P|");

  TransportOptions topts;
  topts.num_cities = 300;
  topts.num_services = 24;
  topts.seed = 23;
  TripleStore store = TransportNetwork(topts);

  std::printf("(a) translation cost vs program size (chain programs)\n");
  bench::Table& ta =
      bench::AddTable("translation", {"rules", "expr_size", "translate_us"});
  std::vector<double> sizes, times;
  for (int k : {4, 8, 16, 32, 64}) {
    auto prog = datalog::ParseProgram(ChainProgram(k));
    bench::Require(prog.ok(), "chain program parse error");
    double t = bench::TimeStable([&] {
      auto e = datalog::ProgramToTriAL(*prog, store,
                                       "p" + std::to_string(k));
      (void)e;
    });
    auto e = datalog::ProgramToTriAL(*prog, store, "p" + std::to_string(k));
    ta.AddRow({k + 1, e.ok() ? (*e)->Size() : 0, t * 1e6});
    sizes.push_back(k + 1);
    times.push_back(t);
  }
  ta.Print();
  bench::ReportFit("translation vs rules", sizes, times);

  std::printf("\n(b) ReachTripleDatalog evaluation, translated to TriAL*\n");
  auto prog = datalog::ParseProgram(kReachProgram);
  auto general = datalog::ParseProgram(kGeneralProgram);
  bench::Require(prog.ok() && general.ok(), "program parse error");
  auto smart = MakeSmartEvaluator();
  bench::Table& tb = bench::AddTable(
      "reach_program", {"triples", "translate_eval_ms", "answers"});
  std::vector<double> bsizes, t_translated;
  for (size_t n : bench::Sweep({500, 1000, 2000, 4000, 8000})) {
    TripleStore bench_store = TransportAt(n);
    double tt = bench::TimeStable([&] {
      auto e = datalog::ProgramToTriAL(*prog, bench_store, "ans");
      if (e.ok()) smart->Eval(*e, bench_store);
    });
    auto e = datalog::ProgramToTriAL(*prog, bench_store, "ans");
    auto out = e.ok() ? smart->Eval(*e, bench_store)
                      : Result<TripleSet>(e.status());
    tb.AddRow({bench_store.TotalTriples(), tt * 1e3,
               out.ok() ? out->size() : 0});
    bsizes.push_back(static_cast<double>(bench_store.TotalTriples()));
    t_translated.push_back(tt);
  }
  tb.Print();
  bench::ReportFit("translated to TriAL*", bsizes, t_translated);

  std::printf("\n(c) general recursion on the semi-naive FixpointStar\n");
  bench::Table& tc = bench::AddTable(
      "general_recursion", {"triples", "fixpoint_ms", "rounds", "answers"});
  for (size_t n : bench::Sweep({500, 1000, 2000})) {
    TripleStore bench_store = TransportAt(n);
    auto pl = datalog::PlanProgram(*general, bench_store);
    bench::Require(pl.ok(), "general program plan error");
    size_t answers = 0;
    double tf = bench::TimeStable([&] {
      auto out = plan::ExecutePlan(**pl, bench_store);
      answers = out.ok() ? out->size() : 0;
    });
    tc.AddRow({bench_store.TotalTriples(), tf * 1e3, (*pl)->runtime.rounds,
               answers});
  }
  tc.Print();
  std::printf(
      "\nexpected: translation linear in |P|; the reach program's star\n"
      "lands in reachTA= and runs on the reach index.\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_datalog",
      "Corollary 1: Datalog-to-TriAL translation cost, a reach program "
      "translated and evaluated, and a general-recursive program on the "
      "plan layer's FixpointStar");
}
