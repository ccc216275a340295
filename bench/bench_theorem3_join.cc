// E09a — Theorem 3, join computation: QueryComputation for TriAL runs in
// O(|e|·|T|²).
//
// Sweeps |T| for a fixed join expression with an inequality condition
// (inequalities block the hash fast path, so the generic engines expose
// the quadratic bound) and reports measured time plus the fitted
// exponent per engine.  The Smart engine is also measured on an
// equality-only variant of the same join, previewing Proposition 4.

#include <cstdio>

#include "bench_common.h"
#include "core/builder.h"
#include "core/eval.h"
#include "graph/generators.h"

namespace trial {
namespace {

void Run() {
  bench::Banner("Theorem 3 (joins): O(|e| . |T|^2)",
                "TriAL joins computable in time O(|e| * |T|^2); measured "
                "growth of naive/matrix engines should be ~quadratic in |T|");

  // e = E ⋈^{1,3',3}_{2=1', 1≠3'} E — Example 2's join plus an
  // inequality.
  ExprPtr join_neq = Expr::Join(
      Expr::Rel("E"), Expr::Rel("E"),
      Spec(Pos::P1, Pos::P3p, Pos::P3,
           {Eq(Pos::P2, Pos::P1p), Neq(Pos::P1, Pos::P3p)}));
  ExprPtr join_eq = Expr::Join(
      Expr::Rel("E"), Expr::Rel("E"),
      Spec(Pos::P1, Pos::P3p, Pos::P3, {Eq(Pos::P2, Pos::P1p)}));

  auto naive = MakeNaiveEvaluator();
  auto matrix = MakeMatrixEvaluator();
  auto smart = MakeSmartEvaluator();

  bench::Table& table = bench::AddTable(
      "join", {"triples", "objects", "naive_ms", "matrix_ms", "smart_neq_ms",
               "smart_eq_ms", "out_triples"});
  std::vector<double> sizes, t_naive, t_matrix, t_smart, t_smart_eq;
  for (size_t n : bench::Sweep({200, 400, 800, 1600, 3200, 6400})) {
    RandomStoreOptions opts;
    opts.num_objects = n / 8;
    opts.num_triples = n;
    opts.seed = 7;
    TripleStore store = RandomTripleStore(opts);
    double tn = bench::TimeStable([&] { naive->Eval(join_neq, store); });
    double tm = bench::TimeStable([&] { matrix->Eval(join_neq, store); });
    double ts = bench::TimeStable([&] { smart->Eval(join_neq, store); });
    double te = bench::TimeStable([&] { smart->Eval(join_eq, store); });
    auto out = smart->Eval(join_neq, store);
    table.AddRow({store.TotalTriples(), store.NumObjects(), tn * 1e3,
                  tm * 1e3, ts * 1e3, te * 1e3, out.ok() ? out->size() : 0});
    sizes.push_back(static_cast<double>(store.TotalTriples()));
    t_naive.push_back(tn);
    t_matrix.push_back(tm);
    t_smart.push_back(ts);
    t_smart_eq.push_back(te);
  }
  table.Print();
  std::printf("\n");
  bench::ReportFit("naive nested-loop", sizes, t_naive);
  bench::ReportFit("matrix (Procedure 1)", sizes, t_matrix);
  bench::ReportFit("smart, inequality join", sizes, t_smart);
  bench::ReportFit("smart, equality join", sizes, t_smart_eq);
  std::printf(
      "\nexpected: naive/matrix ~ x^2 (the paper's bound); the hash engine\n"
      "drops below 2 because equality columns prune the pair space.\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_theorem3_join",
      "Theorem 3 joins: naive, matrix and smart engines on an inequality "
      "join, smart on its equality-only variant");
}
