// A route-planner-shaped workload on a larger synthetic transport
// network: the reachTA= stars (Proposition 5) on the interval
// reachability index, plus an optimizer pass (selection pushdown /
// condition normalization).
//
//   $ ./examples/transport_planner [num_cities]

#include <cstdio>
#include <cstdlib>

#include "core/builder.h"
#include "core/eval.h"
#include "core/fragment.h"
#include "core/optimizer.h"
#include "graph/generators.h"
#include "util/timer.h"

using namespace trial;

int main(int argc, char** argv) {
  size_t cities = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 400;
  TransportOptions opts;
  opts.num_cities = cities;
  opts.num_services = cities / 10 + 3;
  opts.num_companies = 4;
  opts.hierarchy_depth = 2;
  opts.extra_edge_fraction = 0.4;
  opts.seed = 2026;
  TripleStore store = TransportNetwork(opts);
  std::printf("transport network: %zu objects, %zu triples\n",
              store.NumObjects(), store.TotalTriples());

  auto engine = MakeSmartEvaluator();

  // All destinations reachable from city0, with any services.
  ExprPtr reach = ReachAnyPath(Expr::Rel("E"));
  std::printf("\nreachability star fragment: %s\n",
              FragmentName(AnalyzeFragment(reach).Classify()));
  Timer t1;
  auto all = engine->Eval(reach, store);
  std::printf("full reachability: %zu triples in %.1f ms "
              "(interval index)\n",
              all->size(), t1.Millis());

  // Restrict to trips out of city0: σ_{1=city0}(reach).  The optimizer
  // cannot push the selection through the star (that would change its
  // semantics), but it still normalizes conditions.
  ObjId city0 = store.FindObject("city0");
  CondSet from0;
  from0.theta.push_back(EqConst(Pos::P1, city0));
  ExprPtr trips = Expr::Select(reach, from0);
  ExprPtr optimized = Optimize(trips);
  Timer t2;
  auto out = engine->Eval(optimized, store);
  std::printf("trips from city0:  %zu destinations in %.1f ms\n",
              out->size(), t2.Millis());

  // Same-service trips: reachability keeping one service.
  Timer t3;
  auto same = engine->Eval(ReachSameMiddle(Expr::Rel("E")), store);
  std::printf("same-service trips: %zu triples in %.1f ms "
              "(label-product index)\n",
              same->size(), t3.Millis());

  // The optimizer collapses contradictory filters to the empty query.
  CondSet impossible;
  impossible.theta.push_back(EqConst(Pos::P1, city0));
  impossible.theta.push_back(NeqConst(Pos::P1, city0));
  ExprPtr silly = Expr::Select(Expr::Rel("E"), impossible);
  std::printf("\noptimizer: %s  ~~>  %s\n", silly->ToString().c_str(),
              Optimize(silly)->ToString().c_str());
  return 0;
}
