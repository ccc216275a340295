// E10 — Proposition 4: QueryComputation for TriAL= (equality-only
// conditions) runs in O(|e|·|O|·|T|).
//
// Two sweeps: (a) |T| grows at fixed |O|; (b) |O| grows at fixed |T|.
// The hash engine exploits equality columns, so its growth should track
// |O|·|T| (≈ linear in each sweep), while the naive engine stays
// quadratic in |T|.

#include <cstdio>

#include "bench_common.h"
#include "core/builder.h"
#include "core/eval.h"
#include "core/fragment.h"
#include "graph/generators.h"

namespace trial {
namespace {

ExprPtr EqualityJoin() {
  // e = (E ⋈^{1,3',3}_{2=1'} E) ⋈^{1,2,3'}_{3=1'} E — two equality
  // joins; the fragment analyzer classifies it as TriAL=.
  ExprPtr inner = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                             Spec(Pos::P1, Pos::P3p, Pos::P3,
                                  {Eq(Pos::P2, Pos::P1p)}));
  return Expr::Join(inner, Expr::Rel("E"),
                    Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
}

void Run() {
  bench::Banner("Proposition 4: TriAL= in O(|e| . |O| . |T|)",
                "equality-only joins avoid the |T|^2 pair space");

  ExprPtr e = EqualityJoin();
  FragmentInfo info = AnalyzeFragment(e);
  std::printf("fragment of the benched expression: %s\n\n",
              FragmentName(info.Classify()));

  auto naive = MakeNaiveEvaluator();
  auto smart = MakeSmartEvaluator();

  std::printf("sweep (a): |T| grows, |O| = 256 fixed\n");
  bench::Table& ta =
      bench::AddTable("triples_sweep", {"triples", "naive_ms", "smart_ms"});
  std::vector<double> sizes, t_naive, t_smart;
  for (size_t n : bench::Sweep({1000, 2000, 4000, 8000, 16000})) {
    RandomStoreOptions opts;
    opts.num_objects = 256;
    opts.num_triples = n;
    opts.seed = 3;
    TripleStore store = RandomTripleStore(opts);
    double tn = bench::TimeStable([&] { naive->Eval(e, store); });
    double ts = bench::TimeStable([&] { smart->Eval(e, store); });
    ta.AddRow({store.TotalTriples(), tn * 1e3, ts * 1e3});
    sizes.push_back(static_cast<double>(store.TotalTriples()));
    t_naive.push_back(tn);
    t_smart.push_back(ts);
  }
  ta.Print();
  bench::ReportFit("naive vs |T|", sizes, t_naive);
  bench::ReportFit("smart vs |T|", sizes, t_smart);

  std::printf("\nsweep (b): |O| grows, |T| = 8000 fixed\n");
  bench::Table& tb =
      bench::AddTable("objects_sweep", {"objects", "naive_ms", "smart_ms"});
  std::vector<double> os, bt_naive, bt_smart;
  for (size_t o : {64, 128, 256, 512, 1024}) {
    RandomStoreOptions opts;
    opts.num_objects = o;
    opts.num_triples = 8000;
    opts.seed = 5;
    TripleStore store = RandomTripleStore(opts);
    double tn = bench::TimeStable([&] { naive->Eval(e, store); });
    double ts = bench::TimeStable([&] { smart->Eval(e, store); });
    tb.AddRow({store.NumObjects(), tn * 1e3, ts * 1e3});
    os.push_back(static_cast<double>(store.NumObjects()));
    bt_naive.push_back(tn);
    bt_smart.push_back(ts);
  }
  tb.Print();
  std::printf(
      "\nexpected: smart ~linear in |T| at fixed |O| (Prop. 4's |O||T|),\n"
      "naive ~quadratic in |T|.  In sweep (b) larger |O| *reduces* time\n"
      "for both engines on uniform data: with |T| fixed, each join key\n"
      "matches ~|T|/|O| triples, so the pair space shrinks as |O| grows —\n"
      "consistent with the bound, which is an upper envelope.\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_fragment_eq",
      "Proposition 4: naive vs smart engines on a TriAL= join, sweeping "
      "the triple count and the object count");
}
