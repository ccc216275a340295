// E09b — Theorem 3, Kleene stars: QueryComputation for TriAL* runs in
// O(|e|·|T|³).
//
// Sweeps |T| for a recursive expression outside the reachTA= shapes (the
// output keeps a non-reach column arrangement), comparing the paper's
// full-rejoin fixpoint (naive, Procedure 2) with semi-naive delta
// iteration (smart).  The cubic bound is a worst case; on random data
// the naive engine's measured exponent typically lands between 2 and 3.

#include <cstdio>

#include "bench_common.h"
#include "core/builder.h"
#include "core/eval.h"
#include "graph/generators.h"

namespace trial {
namespace {

void Run() {
  bench::Banner("Theorem 3 (stars): O(|e| . |T|^3)",
                "TriAL* computable in O(|e| * |T|^3); naive Procedure 2 vs "
                "semi-naive delta iteration");

  // (E ⋈^{1,2',3'}_{3=1'})* — transitive expansion that rewrites the
  // middle column, so it is not one of the two reachTA= shapes.
  JoinSpec spec = Spec(Pos::P1, Pos::P2p, Pos::P3p, {Eq(Pos::P3, Pos::P1p)});
  ExprPtr star = Expr::StarRight(Expr::Rel("E"), spec);

  auto naive = MakeNaiveEvaluator();
  auto smart = MakeSmartEvaluator();

  bench::Table& table = bench::AddTable(
      "star", {"triples", "objects", "naive_ms", "semi_naive_ms",
               "out_triples"});
  std::vector<double> sizes, t_naive, t_smart;
  for (size_t n : bench::Sweep({100, 200, 400, 800, 1600})) {
    RandomStoreOptions opts;
    opts.num_objects = n / 4;
    opts.num_triples = n;
    opts.seed = 11;
    TripleStore store = RandomTripleStore(opts);
    double tn = bench::TimeStable([&] { naive->Eval(star, store); });
    double ts = bench::TimeStable([&] { smart->Eval(star, store); });
    auto out = smart->Eval(star, store);
    table.AddRow({store.TotalTriples(), store.NumObjects(), tn * 1e3,
                  ts * 1e3, out.ok() ? out->size() : 0});
    sizes.push_back(static_cast<double>(store.TotalTriples()));
    t_naive.push_back(tn);
    t_smart.push_back(ts);
  }
  table.Print();
  std::printf("\n");
  bench::ReportFit("naive full-rejoin (Proc. 2)", sizes, t_naive);
  bench::ReportFit("smart semi-naive", sizes, t_smart);
  std::printf(
      "\nexpected: naive within the cubic bound (usually x^2-x^3 on random\n"
      "data), semi-naive strictly cheaper; both compute identical results\n"
      "(cross-checked by the evaluator-equivalence tests).\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_theorem3_star",
      "Theorem 3 stars: naive full-rejoin fixpoint (Procedure 2) vs "
      "semi-naive delta iteration");
}
