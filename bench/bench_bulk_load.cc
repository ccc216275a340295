// Bulk-load throughput: the parallel ingestion pipeline
// (loader/bulk_load.h) against the legacy ParseNTriples -> RdfGraph ->
// TripleStore path, on SP²Bench-flavored synthetic documents.
//
// The legacy path materializes every triple as three std::strings in a
// std::set before interning; the pipeline dictionary-encodes during the
// scan and never builds the name-triple set, so it should win hard even
// single-threaded, and additionally scale with workers (on multi-core
// hosts; a single-core container pins the parallel rows to ~1x).
//
// TRIAL_BENCH_JSON=BENCH_bulk_load.json regenerates the committed
// baseline.

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "loader/bulk_load.h"
#include "loader/ntriples_writer.h"

namespace trial {
namespace {

void Run() {
  bench::Banner("bulk load: parallel ingestion pipeline vs legacy parser",
                "dictionary-encoded streaming ingestion loads an order of "
                "magnitude faster than materializing the name-triple set");

  bench::Table& table = bench::AddTable(
      "load", {"num_triples", "bytes", "triples_loaded", "legacy_s",
               "bulk_1thread_s", "bulk_2thread_s", "bulk_4thread_s",
               "bulk_1thread_triples_per_s"});
  std::vector<double> sizes, t_legacy, t_bulk1;
  for (size_t n : bench::Sweep({100'000, 250'000, 500'000, 1'000'000})) {
    SyntheticNTriplesOptions gen;
    gen.num_triples = n;
    gen.zipf_p = 1.2;
    gen.zipf_o = 0.4;
    gen.seed = 23;
    std::string doc = SyntheticNTriples(gen);

    double legacy_s = bench::TimeOnce([&doc] {
      auto store = LegacyLoadNTriples(doc);
      if (!store.ok()) std::abort();
    });
    size_t loaded = 0;
    double bulk_s[3] = {};  // 1, 2 and 4 workers
    for (int i = 0; i < 3; ++i) {
      BulkLoadOptions opts;
      opts.num_threads = size_t{1} << i;
      bulk_s[i] = bench::TimeOnce([&doc, &opts, &loaded] {
        BulkLoadStats stats;
        auto store = BulkLoadNTriples(doc, opts, &stats);
        if (!store.ok()) std::abort();
        loaded = stats.triples_loaded;
      });
    }
    table.AddRow({n, doc.size(), loaded, legacy_s, bulk_s[0], bulk_s[1],
                  bulk_s[2], bench::Cell(static_cast<double>(n) / bulk_s[0],
                                         0)});
    sizes.push_back(static_cast<double>(n));
    t_legacy.push_back(legacy_s);
    t_bulk1.push_back(bulk_s[0]);
  }
  table.Print();
  bench::ReportFit("legacy ParseNTriples path", sizes, t_legacy);
  bench::ReportFit("bulk pipeline, 1 thread", sizes, t_bulk1);
  std::printf(
      "\nexpected: both paths are near-linear in the document size; the\n"
      "pipeline's constant is several times smaller single-threaded and\n"
      "drops further with workers when cores are available.\n");
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_bulk_load",
      "N-Triples ingestion: legacy RdfGraph path vs parallel bulk-load "
      "pipeline (1/2/4 workers)");
}
