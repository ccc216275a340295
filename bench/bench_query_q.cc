// The headline workload: query Q from the introduction — "pairs of
// cities connected by services operated by the same company" — on
// growing synthetic transport networks (the Figure 1 schema).
//
//   Q = ((E ⋈^{1,3',3}_{2=1'})* ⋈^{1,2,3'}_{3=1',2=2'})*
//
// Compares all three engines end-to-end; this is the query that is
// expressible in TriAL* but in none of the graph-encoding languages
// (Proposition 1, Theorem 1).

#include <cstdio>

#include "bench_common.h"
#include "core/builder.h"
#include "core/eval.h"
#include "graph/generators.h"

namespace trial {
namespace {

ExprPtr QueryQ() {
  ExprPtr inner = Expr::StarRight(
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P3p, Pos::P3, {Eq(Pos::P2, Pos::P1p)}));
  return Expr::StarRight(inner,
                         Spec(Pos::P1, Pos::P2, Pos::P3p,
                              {Eq(Pos::P3, Pos::P1p), Eq(Pos::P2, Pos::P2p)}));
}

void Run() {
  bench::Banner("Query Q end-to-end (Figure 1 workload)",
                "Q is TriAL*-expressible but beyond nSPARQL/NREs over "
                "sigma encodings");

  ExprPtr q = QueryQ();
  auto naive = MakeNaiveEvaluator();
  auto smart = MakeSmartEvaluator();
  auto matrix = MakeMatrixEvaluator();

  bench::Table& table =
      bench::AddTable("query_q", {"cities", "triples", "naive_ms", "matrix_ms",
                                  "smart_ms", "answer_triples"});
  std::vector<double> sizes, t_smart;
  for (size_t cities : bench::Sweep({50, 100, 200, 400, 800})) {
    TransportOptions opts;
    opts.num_cities = cities;
    opts.num_services = cities / 8 + 2;
    opts.num_companies = 3;
    opts.hierarchy_depth = 2;
    opts.seed = 71;
    TripleStore store = TransportNetwork(opts);
    double tn = cities <= 200
                    ? bench::TimeStable([&] { naive->Eval(q, store); })
                    : -1.0;
    double tm = cities <= 200
                    ? bench::TimeStable([&] { matrix->Eval(q, store); })
                    : -1.0;
    double ts = bench::TimeStable([&] { smart->Eval(q, store); });
    auto out = smart->Eval(q, store);
    table.AddRow({cities, store.TotalTriples(),
                  tn < 0 ? bench::Cell() : bench::Cell(tn * 1e3),
                  tm < 0 ? bench::Cell() : bench::Cell(tm * 1e3), ts * 1e3,
                  out.ok() ? out->size() : 0});
    sizes.push_back(static_cast<double>(store.TotalTriples()));
    t_smart.push_back(ts);
  }
  table.Print();
  bench::ReportFit("smart engine on Q", sizes, t_smart);
  std::printf(
      "\nexpected: all engines agree (cross-checked in tests); the smart\n"
      "engine scales to sizes where the naive fixpoint and the dense\n"
      "tensor are already impractical.\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_query_q",
      "query Q end to end on transport networks: naive, matrix and smart "
      "engines");
}
