// Snapshot open latency: `trial_store --open` (mmap the binary segment
// store) against re-parsing the N-Triples source, on SP²Bench-flavored
// synthetic documents.
//
// The snapshot open reads only metadata — header, TOC, dictionary
// offsets, relation directory, rho — and serves triple data lazily off
// the mapping, so it should sit in the milliseconds regardless of
// store size while the parse path grows linearly.  The first full scan
// pays the delta/varint decode once; that cost is reported separately
// so the lazy-open claim stays honest.
//
// A second table times writes on a warm store, in memory and snapshot-
// backed: appending 16 triples on a fresh subject and reading them back
// with sigma[1=s](E) (the new rows land in the relation's small delta,
// the body is shared, not re-merged), and the exact stats + SPO/POS/OSP
// views rebuilt after those writes (the stats add the delta to the
// body's; each view is one linear merge of body and delta).
//
// TRIAL_BENCH_JSON=BENCH_store_open.json regenerates the committed
// baseline.  The scratch snapshots under /tmp carry the process id, so
// concurrent runs do not clobber each other.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/eval.h"
#include "core/parser.h"
#include "loader/bulk_load.h"
#include "loader/ntriples_writer.h"
#include "storage/segment/store_snapshot.h"

namespace trial {
namespace {

std::string ScratchPath(const char* what) {
  return "/tmp/trial_bench_store_" + std::string(what) + "." +
         std::to_string(getpid()) + ".trial";
}

constexpr size_t kAppendWrites = 16;
constexpr size_t kAppendBatch = 16;

// Warms relation E the way a read workload does (stats and every
// permutation), then times kAppendWrites appends of kAppendBatch
// triples on a fresh subject, each read back through the smart
// evaluator, and the rebuild of stats and views after them.  Records
// the median append + read-back and the rebuild.
void MeasureAppends(TripleStore* store, const char* backing,
                    bench::Table* table) {
  const size_t num_triples = store->TotalTriples();
  const RelId e = 0;
  store->RelationStats(e);
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    store->Relation(e).Materialize(order);
  }
  std::unique_ptr<Evaluator> eval = MakeSmartEvaluator();
  std::vector<double> ms;
  for (size_t k = 0; k < kAppendWrites; ++k) {
    const std::string subject = "append_s" + std::to_string(k);
    size_t rows = 0;
    ms.push_back(1e3 * bench::TimeOnce([&] {
      std::vector<Triple> batch;
      for (size_t i = 0; i < kAppendBatch; ++i) {
        batch.push_back(Triple{
            store->InternObject(subject),
            store->InternObject("append_p" + std::to_string(i % 4)),
            store->InternObject("append_o" + std::to_string(k) + "_" +
                                std::to_string(i))});
      }
      store->BulkAppend(e, std::move(batch));
      auto q = ParseTriAL("sigma[1=\"" + subject + "\"](E)", store);
      if (!q.ok()) std::abort();
      auto r = eval->Eval(*q, *store);
      if (!r.ok()) std::abort();
      rows = r->size();
    }));
    if (rows != kAppendBatch) std::abort();
  }
  std::sort(ms.begin(), ms.end());
  const double rebuild_ms = 1e3 * bench::TimeOnce([&] {
    store->RelationStats(e);
    for (IndexOrder order :
         {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
      store->Relation(e).Materialize(order);
    }
  });
  if (store->RelationStats(e).num_triples !=
      num_triples + kAppendWrites * kAppendBatch) {
    std::abort();
  }
  table->AddRow({num_triples, backing, bench::Cell(ms[ms.size() / 2], 4),
                 rebuild_ms});
}

void RunAppends() {
  bench::Banner("writes: append 16 triples, then sigma[1=s] reads them back",
                "appends go to a small sorted delta next to the shared "
                "body, so a write costs microseconds at any store size; "
                "the stats + view rebuild after it is three linear merges");
  const std::string path = ScratchPath("append");
  bench::Table& table = bench::AddTable(
      "appends", {"num_triples", "backing", "append_select_ms", "rebuild_ms"});
  for (size_t n : bench::Sweep({100'000, 1'000'000})) {
    SyntheticNTriplesOptions gen;
    gen.num_triples = n;
    gen.zipf_p = 1.2;
    gen.zipf_o = 0.4;
    gen.seed = 23;
    BulkLoadOptions opts;
    opts.snapshot_path = path;
    auto loaded = BulkLoadNTriples(SyntheticNTriples(gen), opts);
    if (!loaded.ok()) std::abort();
    auto opened = OpenStoreSnapshot(path);
    if (!opened.ok()) std::abort();
    MeasureAppends(&*loaded, "in-memory", &table);
    MeasureAppends(&*opened, "snapshot", &table);
  }
  table.Print();
  std::printf(
      "\nexpected: append+read stays flat in the tens of microseconds\n"
      "from 10^5 to 10^6 triples; the rebuild grows linearly.\n");
  std::remove(path.c_str());
}

void Run() {
  bench::Banner("store open: mmap snapshot vs re-parsing N-Triples",
                "opening a saved store reads metadata only, so it is "
                "orders of magnitude faster than a parse and does not "
                "grow with the triple count");

  const std::string path = ScratchPath("open");
  bench::Table& table = bench::AddTable(
      "open", {"num_triples", "nt_bytes", "snapshot_bytes", "load_s",
               "save_s", "open_ms", "first_scan_s", "load_over_open"});
  std::vector<double> sizes, t_open;
  for (size_t n : bench::Sweep({100'000, 250'000, 500'000, 1'000'000})) {
    SyntheticNTriplesOptions gen;
    gen.num_triples = n;
    gen.zipf_p = 1.2;
    gen.zipf_o = 0.4;
    gen.seed = 23;
    std::string doc = SyntheticNTriples(gen);

    BulkLoadOptions opts;
    opts.snapshot_path = path;
    BulkLoadStats stats;
    double load_s = bench::TimeOnce([&] {
      auto store = BulkLoadNTriples(doc, opts, &stats);
      if (!store.ok()) std::abort();
    });
    load_s -= stats.save_seconds;  // loader timed save separately

    std::optional<TripleStore> opened;
    const double open_s = bench::TimeOnce([&] {
      auto r = OpenStoreSnapshot(path);
      if (!r.ok()) std::abort();
      opened.emplace(std::move(*r));
    });
    const double first_scan_s = bench::TimeOnce([&] {
      size_t total = 0;
      for (RelId r = 0; r < opened->NumRelations(); ++r) {
        total += opened->Relation(r).triples().size();
      }
      if (total != opened->TotalTriples() || !opened->SnapshotStatus().ok()) {
        std::abort();
      }
    });

    table.AddRow({n, doc.size(), stats.snapshot_bytes, load_s,
                  stats.save_seconds, open_s * 1e3, first_scan_s,
                  bench::Cell(load_s / open_s, 0)});
    sizes.push_back(static_cast<double>(n));
    t_open.push_back(open_s);
  }
  table.Print();
  bench::ReportFit("snapshot open", sizes, t_open);
  std::printf(
      "\nexpected: load and save grow linearly; open stays flat in the\n"
      "low milliseconds (metadata only), and the one-time first-scan\n"
      "decode is a fraction of the original parse.\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  trial::RunAppends();
  return trial::bench::Finish(
      "bench_store_open",
      "store persistence: N-Triples bulk load vs snapshot save, mmap open, "
      "and first-scan decode; writes: append-16 + sigma[1=s] read-back and "
      "the stats + view rebuild after them");
}
