// E25 — the σ(·) encoding in practice: size of σ(D) vs D, and the cost
// of answering a navigational query through the encoding (NRE over
// σ(D)) vs natively on triples (TriAL* on D).
//
// The query is plain forward reachability — expressible on both sides
// (next* over σ(D); (E ⋈^{1,2,3'}_{3=1'})* over D) — so this measures
// pure encoding overhead, complementing Proposition 1's point that some
// queries are not expressible over σ(·) at all.

#include <cstdio>

#include "bench_common.h"
#include "core/builder.h"
#include "core/eval.h"
#include "graph/generators.h"
#include "langs/nre.h"
#include "rdf/rdf_graph.h"
#include "rdf/sigma.h"

namespace trial {
namespace {

RdfGraph StoreToRdf(const TripleStore& store) {
  RdfGraph d;
  const TripleSet* rel = store.FindRelation("E");
  for (const Triple& t : *rel) {
    d.Add(store.ObjectName(t.s), store.ObjectName(t.p),
          store.ObjectName(t.o));
  }
  return d;
}

void Run() {
  bench::Banner("sigma(D) encoding overhead (Prop. 1 companion)",
                "sigma triples every RDF triple into three graph edges; "
                "reachability via the encoding vs natively on triples");

  NrePtr next_star = Nre::Star(Nre::Label("next"));
  ExprPtr reach = ReachAnyPath(Expr::Rel("E"));
  auto smart = MakeSmartEvaluator();

  bench::Table& table = bench::AddTable(
      "sigma", {"rdf_triples", "sigma_edges", "nre_on_sigma_ms",
                "trial_on_d_ms", "nre_pairs", "trial_triples"});
  for (size_t n : bench::Sweep({250, 500, 1000, 2000, 4000})) {
    TransportOptions opts;
    opts.num_cities = n / 2;
    opts.num_services = n / 20 + 2;
    opts.seed = 61;
    TripleStore store = TransportNetwork(opts);
    RdfGraph d = StoreToRdf(store);
    Graph sigma = SigmaEncode(d);

    BinRel nre_result;
    double tn = bench::TimeStable(
        [&] { nre_result = EvalNre(next_star, sigma); });
    Result<TripleSet> trial_result = TripleSet();
    double tt = bench::TimeStable([&] { trial_result = smart->Eval(reach, store); });

    table.AddRow({d.size(), sigma.NumEdges(), tn * 1e3, tt * 1e3,
                  nre_result.size(),
                  trial_result.ok() ? trial_result->size() : 0});
  }
  table.Print();
  std::printf(
      "\nexpected: |sigma(D)| = 3 |D| (deduplicated); both routes answer\n"
      "plain reachability, but only the triple-native route generalizes\n"
      "to query Q (Proposition 1 / Theorem 1, see the test suite).\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_sigma_overhead",
      "reachability through the sigma(D) encoding (NRE next*) vs natively "
      "on triples (TriAL* star)");
}
