#include "loader/bulk_load.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "storage/segment/store_snapshot.h"
#include "storage/triple_index.h"
#include "util/interner.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace trial {
namespace {

constexpr uint32_t kNoRel = UINT32_MAX;

// One scanner chunk: a line-aligned slice of the input plus the
// document-global number of its first line (for error messages).
struct Chunk {
  size_t offset = 0;
  size_t length = 0;
  size_t first_line = 1;
};

// Splits `text` into line-aligned chunks of roughly `target` bytes,
// shrinking the target so at least `min_chunks` chunks exist when the
// input allows it.
std::vector<Chunk> SplitChunks(std::string_view text, size_t target,
                               size_t min_chunks) {
  if (min_chunks > 0 && target > 0 && text.size() / target < min_chunks) {
    target = std::max<size_t>(1, text.size() / min_chunks);
  }
  if (target == 0) target = 1;
  std::vector<Chunk> chunks;
  size_t pos = 0, line = 1;
  while (pos < text.size()) {
    size_t end = pos + target;
    if (end >= text.size()) {
      end = text.size();
    } else {
      size_t nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    chunks.push_back({pos, end - pos, line});
    line += static_cast<size_t>(
        std::count(text.begin() + pos, text.begin() + end, '\n'));
    pos = end;
  }
  return chunks;
}

// Per-worker parse output: a private dictionary plus local-id triple
// runs, one run per target relation.
struct Shard {
  StringInterner dict;
  // Local relation index -> run of local-id triples.  Single-relation
  // mode uses exactly runs[0].
  std::vector<std::vector<Triple>> runs;
  // Per-predicate mode: local predicate id -> local relation index.
  std::vector<uint32_t> rel_of_pred;
  // Local relation index -> local predicate id (for naming).
  std::vector<InternId> pred_of_rel;
  ParseStats stats;
  Status status = Status::OK();
  size_t failed_chunk = SIZE_MAX;  // chunk index of `status`, if not OK
};

// Runs fn(worker) on `workers` workers: worker 0 inline on the calling
// thread, the rest on std::threads.  With workers == 1 this is plain
// sequential execution.
template <typename Fn>
void RunOnWorkers(size_t workers, const Fn& fn) {
  std::vector<std::thread> pool;
  pool.reserve(workers > 0 ? workers - 1 : 0);
  for (size_t w = 1; w < workers; ++w) pool.emplace_back([&fn, w] { fn(w); });
  fn(0);
  for (std::thread& t : pool) t.join();
}

void ParseChunksIntoShard(std::string_view text,
                          const std::vector<Chunk>& chunks, size_t worker,
                          size_t stride, const BulkLoadOptions& opts,
                          Shard* shard) {
  const bool by_pred = opts.relation_per_predicate;
  if (!by_pred) shard->runs.emplace_back();
  auto sink = [shard, by_pred](std::string_view s, std::string_view p,
                               std::string_view o) {
    Triple t{shard->dict.Intern(s), shard->dict.Intern(p),
             shard->dict.Intern(o)};
    size_t rel = 0;
    if (by_pred) {
      if (t.p >= shard->rel_of_pred.size()) {
        shard->rel_of_pred.resize(t.p + 1, kNoRel);
      }
      if (shard->rel_of_pred[t.p] == kNoRel) {
        shard->rel_of_pred[t.p] = static_cast<uint32_t>(shard->runs.size());
        shard->pred_of_rel.push_back(t.p);
        shard->runs.emplace_back();
      }
      rel = shard->rel_of_pred[t.p];
    }
    shard->runs[rel].push_back(t);
  };
  for (size_t c = worker; c < chunks.size(); c += stride) {
    const Chunk& chunk = chunks[c];
    Status st = ParseNTriplesChunk(text.substr(chunk.offset, chunk.length),
                                   opts.parse, chunk.first_line, sink,
                                   &shard->stats);
    if (!st.ok()) {
      shard->status = std::move(st);
      shard->failed_chunk = c;
      return;
    }
  }
}

}  // namespace

Result<TripleStore> BulkLoadNTriples(std::string_view text,
                                     const BulkLoadOptions& opts,
                                     BulkLoadStats* stats) {
  Timer total;
  size_t threads =
      opts.num_threads == 0 ? HardwareThreads() : opts.num_threads;
  // Workers cost a shard dictionary each; beyond any plausible core
  // count they only fragment the dictionaries.
  threads = std::min<size_t>(threads, 256);
  std::vector<Chunk> chunks = SplitChunks(text, opts.chunk_bytes, threads);
  threads = std::max<size_t>(1, std::min(threads, chunks.size()));

  // ---- parallel parse + shard-local dictionary encoding --------------
  Timer parse_timer;
  std::vector<Shard> shards(threads);
  RunOnWorkers(threads, [&](size_t w) {
    ParseChunksIntoShard(text, chunks, w, threads, opts, &shards[w]);
  });
  double parse_seconds = parse_timer.Seconds();

  // Report the error of the earliest failing chunk, so the message the
  // caller sees does not depend on the worker count.
  const Shard* failed = nullptr;
  for (const Shard& s : shards) {
    if (!s.status.ok() &&
        (failed == nullptr || s.failed_chunk < failed->failed_chunk)) {
      failed = &s;
    }
  }
  if (failed != nullptr) return failed->status;

  // ---- global dictionary remap ---------------------------------------
  Timer merge_timer;
  TripleStore store;
  size_t distinct_upper = 0;
  for (const Shard& s : shards) distinct_upper += s.dict.size();
  store.ReserveObjects(distinct_upper);

  std::vector<std::vector<ObjId>> remaps(threads);
  // global_rel[w][local_rel] = RelId in the store.
  std::vector<std::vector<RelId>> global_rel(threads);
  if (!opts.relation_per_predicate) {
    RelId target = store.AddRelation(opts.relation);
    for (size_t w = 0; w < threads; ++w) global_rel[w].assign(1, target);
  }
  for (size_t w = 0; w < threads; ++w) {
    remaps[w] = store.MergeDictionary(shards[w].dict);
    if (opts.relation_per_predicate) {
      global_rel[w].reserve(shards[w].pred_of_rel.size());
      for (InternId pred : shards[w].pred_of_rel) {
        global_rel[w].push_back(store.AddRelation(shards[w].dict.Get(pred)));
      }
    }
  }

  // Rewrite runs through the remaps and sort them — in parallel: the
  // run sorts are the expensive part of the merge and are embarrassingly
  // parallel per shard.
  RunOnWorkers(threads, [&](size_t w) {
    const std::vector<ObjId>& remap = remaps[w];
    for (std::vector<Triple>& run : shards[w].runs) {
      for (Triple& t : run) {
        t = Triple{remap[t.s], remap[t.p], remap[t.o]};
      }
      SortTriples(&run, IndexOrder::kSPO);
      run.erase(std::unique(run.begin(), run.end()), run.end());
    }
  });

  // ---- staged run merge into the relations ---------------------------
  for (size_t w = 0; w < threads; ++w) {
    for (size_t r = 0; r < shards[w].runs.size(); ++r) {
      if (shards[w].runs[r].empty()) continue;
      RelId rel = global_rel[w][r];
      store.BulkAppend(rel, std::move(shards[w].runs[r]));
      // Fold the sorted run in now so each run pays one linear merge
      // (a run past 1/16 of the body compacts into it) instead of
      // deferring a giant mixed batch to the first reader.
      store.Relation(rel).size();
    }
  }
  double merge_seconds = merge_timer.Seconds();

  // Optional segment-emitting sink: persist the loaded store before
  // returning it, so one pass produces both the in-memory store and
  // the reopenable snapshot.
  double save_seconds = 0;
  size_t snapshot_bytes = 0;
  if (!opts.snapshot_path.empty()) {
    SaveSnapshotStats save_stats;
    TRIAL_RETURN_IF_ERROR(
        SaveStoreSnapshot(store, opts.snapshot_path, &save_stats));
    save_seconds = save_stats.seconds;
    snapshot_bytes = save_stats.bytes;
  }

  ParseStats agg;
  for (const Shard& s : shards) {
    agg.lines += s.stats.lines;
    agg.triples += s.stats.triples;
    agg.skipped_literals += s.stats.skipped_literals;
    agg.skipped_blanks += s.stats.skipped_blanks;
  }
  if (stats != nullptr) {
    stats->bytes = text.size();
    stats->chunks = chunks.size();
    stats->threads = threads;
    stats->parse = agg;
    stats->triples_loaded = store.TotalTriples();
    stats->objects = store.NumObjects();
    stats->relations = store.NumRelations();
    stats->parse_seconds = parse_seconds;
    stats->merge_seconds = merge_seconds;
    stats->save_seconds = save_seconds;
    stats->snapshot_bytes = snapshot_bytes;
    stats->total_seconds = total.Seconds();
  }
  if (MetricsEnabled()) {
    // Per-load stage timings and skipped-line counters; one observation
    // per bulk load, never per triple.
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto ns = [](double seconds) {
      return static_cast<uint64_t>(seconds * 1e9);
    };
    reg.GetCounter("loader.loads")->Increment();
    reg.GetCounter("loader.bytes")->Add(text.size());
    reg.GetCounter("loader.triples_loaded")->Add(store.TotalTriples());
    reg.GetCounter("loader.lines")->Add(agg.lines);
    reg.GetCounter("loader.skipped_literals")->Add(agg.skipped_literals);
    reg.GetCounter("loader.skipped_blanks")->Add(agg.skipped_blanks);
    reg.GetHistogram("loader.parse_ns")->Observe(ns(parse_seconds));
    reg.GetHistogram("loader.merge_ns")->Observe(ns(merge_seconds));
    if (!opts.snapshot_path.empty()) {
      reg.GetHistogram("loader.save_ns")->Observe(ns(save_seconds));
    }
    reg.GetHistogram("loader.total_ns")->Observe(ns(total.Seconds()));
  }
  return store;
}

Result<TripleStore> BulkLoadNTriplesFile(const std::string& path,
                                         const BulkLoadOptions& opts,
                                         BulkLoadStats* stats) {
  Timer read_timer;
  TRIAL_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  double read_seconds = read_timer.Seconds();
  Result<TripleStore> store = BulkLoadNTriples(content, opts, stats);
  if (stats != nullptr && store.ok()) {
    stats->read_seconds = read_seconds;
    stats->total_seconds += read_seconds;
  }
  return store;
}

Result<TripleStore> LegacyLoadNTriples(std::string_view text,
                                       const BulkLoadOptions& opts,
                                       ParseStats* stats) {
  TRIAL_ASSIGN_OR_RETURN(RdfGraph g, ParseNTriples(text, opts.parse, stats));
  if (!opts.relation_per_predicate) return g.ToTripleStore(opts.relation);
  TripleStore store;
  for (const RdfGraph::NameTriple& t : g.triples()) {
    store.Add(t[1], t[0], t[1], t[2]);
  }
  return store;
}

Result<TripleStore> LegacyLoadNTriplesFile(const std::string& path,
                                           const BulkLoadOptions& opts,
                                           ParseStats* stats) {
  TRIAL_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return LegacyLoadNTriples(content, opts, stats);
}

namespace {

bool Differ(std::string* diff, const std::string& msg) {
  if (diff != nullptr) *diff = msg;
  return false;
}

}  // namespace

bool StoresEquivalent(const TripleStore& a, const TripleStore& b,
                      std::string* diff) {
  if (a.NumObjects() != b.NumObjects()) {
    return Differ(diff, "object counts differ: " +
                            std::to_string(a.NumObjects()) + " vs " +
                            std::to_string(b.NumObjects()));
  }
  // Object names, rho, and the a-id -> b-id mapping.
  std::vector<ObjId> a2b(a.NumObjects());
  for (ObjId id = 0; id < a.NumObjects(); ++id) {
    std::string_view name = a.ObjectName(id);
    ObjId bid = b.FindObject(name);
    if (bid == kInvalidIntern) {
      return Differ(diff, "object missing from b: " + std::string(name));
    }
    if (!(a.Value(id) == b.Value(bid))) {
      return Differ(diff, "rho differs for object: " + std::string(name));
    }
    a2b[id] = bid;
  }
  if (a.NumRelations() != b.NumRelations()) {
    return Differ(diff, "relation counts differ: " +
                            std::to_string(a.NumRelations()) + " vs " +
                            std::to_string(b.NumRelations()));
  }
  for (RelId r = 0; r < a.NumRelations(); ++r) {
    std::string name(a.RelationName(r));
    const TripleSet* rb = b.FindRelation(name);
    if (rb == nullptr) {
      return Differ(diff, "relation missing from b: " + name);
    }
    const TripleSet& ra = a.Relation(r);
    if (ra.size() != rb->size()) {
      return Differ(diff, "relation " + name + " sizes differ: " +
                              std::to_string(ra.size()) + " vs " +
                              std::to_string(rb->size()));
    }
    for (const Triple& t : ra) {
      Triple mapped{a2b[t.s], a2b[t.p], a2b[t.o]};
      if (!rb->Contains(mapped)) {
        return Differ(diff, "relation " + name + " misses triple " +
                                a.TripleToString(t));
      }
    }
  }
  return true;
}

}  // namespace trial
