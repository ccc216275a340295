// E21 — Proposition 3: QueryEvaluation is PTIME-complete (combined
// complexity) — i.e. polynomial in *both* the expression and the data.
//
// Two sweeps: (a) expression size grows (chains of joins) at fixed |T|;
// (b) |T| grows at fixed expression.  Both fitted exponents must be
// small constants — no exponential blow-up in either dimension.

#include <cstdio>

#include "bench_common.h"
#include "core/builder.h"
#include "core/eval.h"
#include "graph/generators.h"

namespace trial {
namespace {

ExprPtr JoinChain(int k) {
  // e_k = ((E ⋈ E) ⋈ E) ... with the composition join.
  ExprPtr e = Expr::Rel("E");
  for (int i = 0; i < k; ++i) {
    e = Expr::Join(e, Expr::Rel("E"),
                   Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
  }
  return e;
}

void Run() {
  bench::Banner("Proposition 3: polynomial combined complexity",
                "evaluation is PTIME in |e| and |T| jointly (NLOGSPACE "
                "data complexity)");

  auto smart = MakeSmartEvaluator();

  std::printf("(a) |e| grows (join chains), |T| ~ 2000 fixed\n");
  RandomStoreOptions opts;
  opts.num_objects = 300;
  opts.num_triples = 2000;
  opts.seed = 41;
  TripleStore store = RandomTripleStore(opts);
  bench::Table& ta = bench::AddTable("expr_size", {"expr_size", "smart_ms"});
  std::vector<double> sizes, times;
  for (int k : {1, 2, 4, 8, 16, 32}) {
    ExprPtr e = JoinChain(k);
    double t = bench::TimeStable([&] { smart->Eval(e, store); });
    ta.AddRow({e->Size(), t * 1e3});
    sizes.push_back(static_cast<double>(e->Size()));
    times.push_back(t);
  }
  ta.Print();
  bench::ReportFit("time vs |e|", sizes, times);

  std::printf("\n(b) |T| grows, |e| fixed (chain of 8 joins)\n");
  ExprPtr e8 = JoinChain(8);
  bench::Table& tb = bench::AddTable("data_size", {"triples", "smart_ms"});
  std::vector<double> bsizes, btimes;
  for (size_t n : bench::Sweep({500, 1000, 2000, 4000})) {
    RandomStoreOptions o2;
    o2.num_objects = n / 8;
    o2.num_triples = n;
    o2.seed = 43;
    TripleStore s2 = RandomTripleStore(o2);
    double t = bench::TimeStable([&] { smart->Eval(e8, s2); });
    tb.AddRow({s2.TotalTriples(), t * 1e3});
    bsizes.push_back(static_cast<double>(s2.TotalTriples()));
    btimes.push_back(t);
  }
  tb.Print();
  bench::ReportFit("time vs |T|", bsizes, btimes);
  std::printf(
      "\nexpected: both fits are low-degree polynomials (roughly linear in\n"
      "|e|, between 1 and 2 in |T|), far from exponential growth.\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_combined_complexity",
      "Proposition 3: smart evaluation time as the join chain grows at "
      "fixed data, and as the data grows at a fixed chain");
}
