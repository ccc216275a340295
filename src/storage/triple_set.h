// TripleSet: a set of triples, the value produced and consumed by every
// TriAL operator (the algebra is closed, Section 3).
//
// Representation: a sorted, duplicate-free vector in (s, p, o) order —
// which doubles as the SPO permutation index — plus lazily-built POS and
// OSP permutations (see triple_index.h) behind the access-path API
// below.  Insertion batches into a staging area and re-normalizes lazily
// (sort the batch, inplace_merge into the sorted body), so bulk loads
// and fixpoint iterations stay cheap.
//
// The permutation cache is shared between copies: copying a relation out
// of a TripleStore shares the store's cache cell, so an index built
// through any copy benefits every later copy of the same relation.
// Mutating a copy detaches it onto a fresh cell.
//
// Snapshot backing: a set opened from an on-disk store snapshot holds a
// TripleSegmentSource instead of decoded vectors.  size() and Stats()
// come from the persisted metadata without touching triple data; the
// first scan/probe of a permutation decodes that segment (O(n), no
// sort) into the shared cache cell.  Mutation promotes copy-on-write:
// the SPO vector is decoded (or copied from the cache), the source is
// dropped, and the set behaves like any in-memory set from then on —
// other copies still sharing the source are unaffected.

#ifndef TRIAL_STORAGE_TRIPLE_SET_H_
#define TRIAL_STORAGE_TRIPLE_SET_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "storage/segment/segment_source.h"
#include "storage/triple.h"
#include "storage/triple_index.h"
#include "util/status.h"

namespace trial {

/// An immutable-after-Normalize sorted set of triples.
class TripleSet {
 public:
  TripleSet() : cache_(std::make_shared<TripleIndexCache>()) {}
  /// Takes any vector; sorts and dedups it.
  explicit TripleSet(std::vector<Triple> triples);

  /// A set backed by a snapshot segment source: no triple data is
  /// decoded here; the persisted exact stats are pre-seeded into the
  /// cache so planning is free.
  static TripleSet FromSnapshot(
      std::shared_ptr<const TripleSegmentSource> source);

  /// Adds a triple (staged; set is normalized on first read access).
  void Insert(const Triple& t) {
    staged_.push_back(t);
  }
  void Insert(ObjId s, ObjId p, ObjId o) { Insert(Triple{s, p, o}); }

  /// Stages a whole batch at once (the bulk loader's per-worker runs).
  /// Equivalent to Insert per element but a single append — an
  /// unreserved empty staging area adopts the vector wholesale, a
  /// Reserve'd one keeps its buffer.  Normalization stays lazy, so
  /// successive batches still pay one sort + inplace_merge on the next
  /// read, and the shared index-cache cell detaches exactly as for
  /// Insert.
  void InsertBatch(std::vector<Triple> batch) {
    if (staged_.empty() && staged_.capacity() < batch.size()) {
      staged_ = std::move(batch);
    } else {
      staged_.insert(staged_.end(), batch.begin(), batch.end());
    }
  }

  /// Pre-sizes the staging area for `n` further triples.
  void Reserve(size_t n) { staged_.reserve(staged_.size() + n); }

  /// Membership test.
  bool Contains(const Triple& t) const;

  /// Number of triples.  For a snapshot-backed set this reads the
  /// persisted count — no triple data is decoded.
  size_t size() const {
    if (source_ != nullptr && staged_.empty()) return source_->num_triples();
    Normalize();
    return triples_.size();
  }
  bool empty() const { return size() == 0; }

  /// Sorted (s,p,o) view.  Stable until the next Insert.  For a
  /// snapshot-backed set this decodes the SPO segment on first use.
  const std::vector<Triple>& triples() const {
    return OrderVector(IndexOrder::kSPO);
  }

  std::vector<Triple>::const_iterator begin() const { return triples().begin(); }
  std::vector<Triple>::const_iterator end() const { return triples().end(); }

  // ---- access paths (permutation indexes) -----------------------------
  //
  // All lookups return contiguous ranges over one of the three
  // permutations (SPO / POS / OSP); ranges stay valid until the next
  // Insert.  Columns are 0 = subject, 1 = predicate, 2 = object.

  /// Triples whose `column` equals `v`, in the order chosen by
  /// PlanAccess for that column.  O(log n) plus the range size; builds
  /// the needed permutation on first use (O(n log n), cached).
  TripleRange Lookup(int column, ObjId v) const;

  /// Triples with `col_a` == `va` and `col_b` == `vb` (distinct
  /// columns).  Every column pair is some permutation's sorted prefix.
  TripleRange LookupPair(int col_a, ObjId va, int col_b, ObjId vb) const;

  /// The full set in the given permutation order.
  TripleRange Scan(IndexOrder order) const;

  /// Partition-aware scan: the `part`-th of `num_parts` contiguous
  /// near-equal slices of Scan(order).  Slices concatenate (in part
  /// order) to the full scan, and the split depends only on (size(),
  /// num_parts) — never on threads or scheduling — so parallel kernels
  /// that merge per-part outputs in order are deterministic.
  TripleRange Scan(IndexOrder order, size_t part, size_t num_parts) const;

  /// All `num_parts` slices of the partitioned scan at once, in order.
  /// At most num_parts ranges are returned (fewer when the set is
  /// smaller); builds the permutation for `order` on first use.
  std::vector<TripleRange> Partitions(IndexOrder order,
                                      size_t num_parts) const;

  /// Forces normalization plus the permutation build for `order`, so
  /// subsequent const reads (Lookup / LookupPair / Scan on that order)
  /// touch no lazily-mutated state.  Parallel kernels call this before
  /// handing the set to concurrent workers: the lazy builds are
  /// single-writer, concurrent reads after materialization are safe.
  void Materialize(IndexOrder order) const { OrderVector(order); }

  /// True when `order` can be probed without a build (already built, or
  /// the SPO base).  Pending staged inserts make every order not-ready;
  /// a snapshot-backed set's SPO is not ready until its first decode.
  bool IndexReady(IndexOrder order) const {
    if (!staged_.empty() || cache_ == nullptr) return false;
    if (source_ != nullptr && order == IndexOrder::kSPO) {
      return cache_->base_built;
    }
    return cache_->Built(order);
  }

  /// True when probing `order` is free or its build will be amortized:
  /// the SPO base, an already-built permutation, or a cache cell shared
  /// with another set (e.g. the store's relation, which every later
  /// copy then probes for free).  A fresh intermediate result returns
  /// false for POS/OSP — its cache dies with it, so a one-shot caller
  /// is better off with a linear scan.
  bool IndexAmortized(IndexOrder order) const;

  /// Per-column stats for access-path costing.  Builds all permutations.
  const TripleSetStats& Stats() const;

  /// The cached stats when already computed, nullptr otherwise — never
  /// forces a permutation build.  Planner estimates degrade to generic
  /// heuristics instead of paying O(n log n) builds a query may never
  /// need; once anything calls Stats() the exact counts appear.
  const TripleSetStats* CachedStats() const {
    return staged_.empty() && cache_ != nullptr && cache_->stats_built
               ? &cache_->stats
               : nullptr;
  }

  /// The reachability index attached to this set's cache cell in
  /// `slot` (< TripleIndexCache::kReachSlots, one per projected graph),
  /// or nullptr when none is attached (or staged inserts are pending).
  /// Type-erased: core/reach/reach_index.h owns the concrete type and
  /// the slot numbering, and does the casting.  Never forces a build.
  std::shared_ptr<const void> CachedReachIndex(size_t slot = 0) const {
    return staged_.empty() && cache_ != nullptr ? cache_->reach[slot]
                                                : nullptr;
  }

  /// Attaches a reachability index to the cache cell's `slot`
  /// (normalizing first, so a later Normalize with no staged inserts
  /// cannot detach it).  Copies sharing the cell — including the
  /// store's relation when this set was copied out of a store — see it
  /// immediately; the next mutation of any sharer detaches that sharer
  /// onto a fresh cell, invalidating its view of the index.
  void AttachReachIndex(std::shared_ptr<const void> index,
                        size_t slot = 0) const {
    Normalize();
    if (cache_ == nullptr) cache_ = std::make_shared<TripleIndexCache>();
    cache_->reach[slot] = std::move(index);
  }

  /// Adopts an already sorted, duplicate-free vector as the set's SPO
  /// body without re-sorting (debug-asserted).  For operators that
  /// produce output in globally sorted order, this skips the
  /// O(n log n) normalize sort that Insert-then-read would pay.
  static TripleSet FromSortedUnique(std::vector<Triple> triples);

  /// True while the set reads through an on-disk snapshot segment
  /// (mutation promotes it to an ordinary in-memory set).
  bool snapshot_backed() const { return source_ != nullptr; }

  /// The backing source, or nullptr for in-memory sets (test hook for
  /// decode_count / sharing assertions).
  const TripleSegmentSource* snapshot_source() const { return source_.get(); }

  /// OK unless a lazy segment decode hit corruption — then the sticky
  /// first diagnostic.  Checked by every evaluator entry point via
  /// TripleStore::SnapshotStatus() so corrupt snapshots fail queries
  /// loudly instead of returning empty/partial results.
  Status SnapshotHealth() const;

  /// Forces a snapshot-backed set to decode its data and reports the
  /// resulting health.  A plan can pass a relation through untouched
  /// (a bare index scan), so evaluator entry points call this on the
  /// *result* before returning it — otherwise a corrupt triple segment
  /// would surface as an empty result instead of an error when the
  /// caller first reads it.  No-op (OK) for in-memory sets.
  Status VerifyMaterialized() const {
    if (source_ != nullptr) (void)OrderVector(IndexOrder::kSPO);
    return SnapshotHealth();
  }

  /// Set union / difference / intersection (merge on sorted vectors).
  static TripleSet Union(const TripleSet& a, const TripleSet& b);
  static TripleSet Difference(const TripleSet& a, const TripleSet& b);
  static TripleSet Intersection(const TripleSet& a, const TripleSet& b);

  bool operator==(const TripleSet& o) const { return triples() == o.triples(); }
  bool operator!=(const TripleSet& o) const { return !(*this == o); }

 private:
  void Normalize() const;
  /// Copy-on-write promotion: materializes triples_ from the snapshot
  /// (cache copy or fresh decode) and drops the source.  Any decode
  /// failure is captured into decode_error_ so SnapshotHealth() keeps
  /// reporting it after the source is gone.
  void Promote() const;
  /// The permutation vector backing `order` (triples_ for SPO, or the
  /// shared cache's segment decode for snapshot-backed sets).
  const std::vector<Triple>& OrderVector(IndexOrder order) const;

  mutable std::vector<Triple> triples_;  // sorted, unique
  mutable std::vector<Triple> staged_;   // pending inserts
  // Shared with copies; detached (fresh cell) whenever triples_ changes.
  // Never null except after being moved from; OrderVector/Stats re-create.
  mutable std::shared_ptr<TripleIndexCache> cache_;
  // Snapshot backing; shared by every copy of the relation.  Null for
  // in-memory sets and after copy-on-write promotion.
  mutable std::shared_ptr<const TripleSegmentSource> source_;
  // Sticky record of a promotion-time decode failure (the source that
  // carried the diagnostic is gone after promotion).
  mutable Status decode_error_ = Status::OK();
};

}  // namespace trial

#endif  // TRIAL_STORAGE_TRIPLE_SET_H_
