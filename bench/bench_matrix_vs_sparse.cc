// E24 — the paper's cost model vs a sparse engine: the array
// representation ("three-dimensional n×n×n matrix") behind Theorem 3
// against sorted-vector/hash evaluation, as density varies.
//
// At fixed |O|, density |T| / |O|³ sweeps from sparse to dense; the
// matrix engine's cost is dominated by the n³ tensor scans and is flat
// in the triple count, while the sparse engines scale with |T|.

#include <cstdio>

#include "bench_common.h"
#include "core/builder.h"
#include "core/eval.h"
#include "graph/generators.h"

namespace trial {
namespace {

void Run() {
  bench::Banner("Array representation vs sparse evaluation",
                "Theorem 3's algorithm is stated on dense n^3 tensors; "
                "sparse engines depend on |T| instead");

  ExprPtr join = Expr::Join(
      Expr::Rel("E"), Expr::Rel("E"),
      Spec(Pos::P1, Pos::P3p, Pos::P3, {Eq(Pos::P2, Pos::P1p)}));
  auto matrix = MakeMatrixEvaluator();
  auto naive = MakeNaiveEvaluator();
  auto smart = MakeSmartEvaluator();

  constexpr size_t kObjects = 96;  // n^3 = 884k cells
  bench::Table& table = bench::AddTable(
      "density", {"triples", "density", "matrix_ms", "naive_ms", "smart_ms"});
  for (size_t t : bench::Sweep({100, 400, 1600, 6400, 25600})) {
    RandomStoreOptions opts;
    opts.num_objects = kObjects;
    opts.num_triples = t;
    opts.seed = 51;
    TripleStore store = RandomTripleStore(opts);
    double dm = bench::TimeStable([&] { matrix->Eval(join, store); });
    double dn = bench::TimeStable([&] { naive->Eval(join, store); });
    double ds = bench::TimeStable([&] { smart->Eval(join, store); });
    double density = static_cast<double>(store.TotalTriples()) /
                     (static_cast<double>(kObjects) * kObjects * kObjects);
    table.AddRow({store.TotalTriples(), bench::Cell(density, 5), dm * 1e3,
                  dn * 1e3, ds * 1e3});
  }
  table.Print();
  std::printf(
      "\nexpected: the matrix engine has a high flat floor (tensor scans)\n"
      "but grows slowly with |T|; sparse engines win while the relation\n"
      "is sparse, and the naive engine crosses over once |T|^2 work\n"
      "dominates the n^3 scans.\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_matrix_vs_sparse",
      "dense n^3 tensor engine vs naive and smart sparse engines as the "
      "density of a 96-object store grows");
}
