// E11 — Proposition 5: the reachTA= stars
//   (R ⋈^{1,2,3'}_{3=1'})*        and   (R ⋈^{1,2,3'}_{3=1',2=2'})*
// are computable in O(|e|·|O|·|T|) via Procedures 3 and 4.
//
// Compares two routes on the same input: the naive full-rejoin
// fixpoint and Procedures 3/4 themselves (core/fast_reach.h), called
// directly.  The planner runs these stars on the interval reachability
// index instead; bench_reach_index A/Bs the index against Procedure 3.
//
// TRIAL_BENCH_JSON=BENCH_reachta.json regenerates the committed
// baseline.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/builder.h"
#include "core/eval.h"
#include "core/fast_reach.h"
#include "graph/generators.h"

namespace trial {
namespace {

void RunOne(const char* table_name, const char* title, bool same_middle) {
  std::printf("\n--- %s ---\n", title);
  ExprPtr star = same_middle ? ReachSameMiddle(Expr::Rel("E"))
                             : ReachAnyPath(Expr::Rel("E"));
  auto naive = MakeNaiveEvaluator();
  auto procedure = same_middle ? StarReachSameMiddle : StarReachAnyPath;

  bench::Table& table = bench::AddTable(
      table_name, {"num_triples", "num_objects", "naive_ms", "procedure_ms",
                   "output_triples"});
  std::vector<double> sizes, t_naive, t_fast;
  for (size_t n : bench::Sweep({250, 500, 1000, 2000, 4000})) {
    TransportOptions opts;
    opts.num_cities = n / 4;
    opts.num_services = n / 16 + 2;
    opts.num_companies = 4;
    opts.hierarchy_depth = 2;
    opts.seed = 17;
    TripleStore store = TransportNetwork(opts);
    const TripleSet& base = *store.FindRelation("E");
    base.triples();  // normalize once, outside the timed runs
    // The naive fixpoint re-joins the whole accumulated result every
    // round (chain length ~ rounds); restrict it to the small sizes.
    double tn = n <= 500
                    ? bench::TimeStable([&] { naive->Eval(star, store); })
                    : -1.0;
    const TripleSet out = procedure(base);
    double tf = bench::TimeStable([&] { procedure(base); });
    table.AddRow({store.TotalTriples(), store.NumObjects(),
                  tn < 0 ? bench::Cell() : bench::Cell(tn * 1e3), tf * 1e3,
                  out.size()});
    sizes.push_back(static_cast<double>(store.TotalTriples()));
    t_fast.push_back(tf);
    if (tn >= 0) t_naive.push_back(tn);
  }
  table.Print();
  bench::ReportFit("naive fixpoint", sizes, t_naive);
  bench::ReportFit(same_middle ? "Procedure 4" : "Procedure 3", sizes, t_fast);
}

void Run() {
  bench::Banner("Proposition 5: reachTA= in O(|e| . |O| . |T|)",
                "the two reachability star shapes admit near-linear "
                "algorithms (Procedures 3 and 4)");
  RunOne("arbitrary_path", "arbitrary path: (R JOIN[1,2,3'; 3=1'])*",
         /*same_middle=*/false);
  RunOne("same_middle", "same middle:    (R JOIN[1,2,3'; 3=1',2=2'])*",
         /*same_middle=*/true);
  std::printf(
      "\nexpected: each procedure's time follows its output (O(|O| . |T|)\n"
      "worst case): about |T|^2 for the arbitrary-path star, whose output\n"
      "grows that fast on this network, near-linear for the same-middle\n"
      "star; both beat the naive fixpoint by orders of magnitude.\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_reachta",
      "Proposition 5 reachTA= baseline: naive fixpoint vs Procedures 3/4 "
      "called directly (serial)");
}
