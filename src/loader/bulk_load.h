// Bulk loader: parallel N-Triples ingestion into a TripleStore.
//
// The pipeline (the standard dictionary-encoding bulk-load architecture
// of RDF-3X / Virtuoso / Jena TDB; cf. Ali et al., "A Survey of RDF
// Stores & SPARQL Engines"):
//
//   file --> chunked scanner            chunks split on line boundaries,
//                                       assigned to workers statically
//                                       (round-robin), so the load is
//                                       deterministic in the thread count
//        --> parse + shard encoding     each worker runs the zero-copy
//                                       N-Triples core and interns terms
//                                       into a private shard dictionary,
//                                       emitting local-id triples into
//                                       per-relation runs
//        --> global dictionary remap    shard dictionaries are merged
//                                       sequentially into the store's
//                                       interner (StringInterner::
//                                       MergeFrom); workers then rewrite
//                                       their runs through the remap and
//                                       sort them in parallel
//        --> staged run merge           sorted runs are appended with
//                                       TripleStore::BulkAppend and
//                                       folded in through TripleSet's
//                                       normalization (the first run
//                                       is adopted, later ones merged
//                                       linearly)
//
// No intermediate RdfGraph (name-triple set) is ever materialized: the
// only per-triple string work is one dictionary probe per term.
//
// Relation assignment supports the paper's T = (O, E_1..E_n, rho) shape
// two ways: everything into one named relation (default "E", matching
// RdfGraph::ToTripleStore), or one relation per distinct predicate,
// named by the predicate (relation_per_predicate).

#ifndef TRIAL_LOADER_BULK_LOAD_H_
#define TRIAL_LOADER_BULK_LOAD_H_

#include <string>
#include <string_view>

#include "rdf/ntriples.h"
#include "storage/triple_store.h"
#include "util/status.h"

namespace trial {

/// Bulk-load pipeline knobs.
struct BulkLoadOptions {
  /// Worker count; 0 means HardwareThreads().
  /// 1 runs the whole pipeline inline, no threads spawned.
  size_t num_threads = 0;
  /// Target scanner chunk size in bytes; the scanner shrinks it so
  /// every worker gets at least one chunk, and always cuts on line
  /// boundaries.
  size_t chunk_bytes = 8u << 20;
  /// Literal / blank-node handling (see rdf/ntriples.h).
  ParseOptions parse;
  /// Name of the target relation (single-relation mode).
  std::string relation = "E";
  /// When true, each distinct predicate becomes its own relation named
  /// by the predicate, instead of one big `relation`.
  bool relation_per_predicate = false;
  /// When non-empty, the loaded store is saved as an on-disk snapshot
  /// at this path after the merge phase (see
  /// storage/segment/store_snapshot.h); reopen with OpenStoreSnapshot
  /// or `trial_store --open`.  The save builds the permutation indexes
  /// and exact stats as a side effect (they are part of the format).
  std::string snapshot_path;
};

/// Accounting for one bulk load.
struct BulkLoadStats {
  size_t bytes = 0;          ///< input size
  size_t chunks = 0;         ///< scanner chunks
  size_t threads = 0;        ///< workers actually used
  ParseStats parse;          ///< line-level tallies over all chunks
  size_t triples_loaded = 0; ///< post-dedup total across relations
  size_t objects = 0;        ///< dictionary size after load
  size_t relations = 0;      ///< relation count after load
  double read_seconds = 0;   ///< file read (file entry point only)
  double parse_seconds = 0;  ///< parallel parse + shard-encode phase
  double merge_seconds = 0;  ///< dict merge + remap/sort + run merge
  double save_seconds = 0;   ///< snapshot write (snapshot_path set)
  size_t snapshot_bytes = 0; ///< snapshot file size (snapshot_path set)
  double total_seconds = 0;

  double TriplesPerSecond() const {
    return total_seconds > 0 ? static_cast<double>(parse.triples) /
                                   total_seconds
                             : 0;
  }
};

/// Bulk-loads an in-memory N-Triples document.  `stats` may be null.
Result<TripleStore> BulkLoadNTriples(std::string_view text,
                                     const BulkLoadOptions& opts = {},
                                     BulkLoadStats* stats = nullptr);

/// Bulk-loads an N-Triples file.
Result<TripleStore> BulkLoadNTriplesFile(const std::string& path,
                                         const BulkLoadOptions& opts = {},
                                         BulkLoadStats* stats = nullptr);

/// The legacy single-threaded reference path — ParseNTriples into an
/// RdfGraph, then intern triple-by-triple — honoring the same relation
/// mode and parse options.  The loader is validated against this
/// (StoresEquivalent) by tests, bench_bulk_load and `trial_store
/// --verify`.
Result<TripleStore> LegacyLoadNTriples(std::string_view text,
                                       const BulkLoadOptions& opts = {},
                                       ParseStats* stats = nullptr);
Result<TripleStore> LegacyLoadNTriplesFile(const std::string& path,
                                           const BulkLoadOptions& opts = {},
                                           ParseStats* stats = nullptr);

/// Name-level store equality: same object-name set, same rho per name,
/// same relation-name set, and per-relation identical triple sets under
/// the name mapping.  Object-id assignment is an internal detail (the
/// two load paths intern in different orders).  On mismatch returns
/// false and, when `diff` is non-null, describes the first difference.
bool StoresEquivalent(const TripleStore& a, const TripleStore& b,
                      std::string* diff = nullptr);

}  // namespace trial

#endif  // TRIAL_LOADER_BULK_LOAD_H_
