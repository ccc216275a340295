// TripleSet: a set of triples, the value produced and consumed by every
// TriAL operator (the algebra is closed, Section 3).
//
// Representation: one shared, immutable TripleBlock (triple_index.h) —
// a sorted, duplicate-free body whose SPO vector doubles as the SPO
// index, lazily-built POS and OSP permutations, and a small sorted
// delta of rows written since the body was made — plus a per-copy
// staging area.  Insertion stages; the first read normalizes: it sorts
// and dedups the batch and publishes a new block (triple_index.h,
// TripleBlock::Write).  So bulk loads and operator outputs pay one sort,
// and appending k rows to a large set costs O(k log n + |delta|), not a
// re-merge of the body.
//
// Copies share the block: copying a relation out of a TripleStore is a
// refcount bump, and an index built through any copy serves every later
// copy of the same relation.  A write through one copy moves that copy
// alone onto a new block; the body, and the permutations already built
// on it, stay shared.  Stats survive the write (derived, see
// TripleSetStats); reachability indexes do not.
//
// Snapshot backing: a set opened from an on-disk store snapshot has a
// body backed by a TripleSegmentSource instead of decoded vectors.
// size() and Stats() come from the persisted metadata without touching
// triple data; the first scan/probe of a permutation decodes that
// segment (O(n), no sort) into the shared body.  The first write keeps
// that body and its decoded orders (the new rows go to the delta) until
// a compaction merges them into an in-memory body; other copies still
// read the snapshot unchanged.

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
  TripleSet() : block_(std::make_shared<TripleBlock>()) {}
  /// Takes any vector; sorts and dedups it.
  explicit TripleSet(std::vector<Triple> triples);

  /// A set backed by a snapshot segment source: no triple data is
  /// decoded here; the persisted exact stats are pre-seeded into the
  /// block so planning is free.
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
  /// successive batches still pay one sort and one write on the next
  /// read, exactly as for Insert.
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
    Normalize();
    return block_->size();
  }
  bool empty() const { return size() == 0; }

  /// Sorted (s,p,o) view.  Stable until the next Insert.  For a
  /// snapshot-backed set this decodes the SPO segment on first use;
  /// with a pending delta it builds the merged view (a linear merge).
  const std::vector<Triple>& triples() const {
    return Block().View(IndexOrder::kSPO);
  }

  std::vector<Triple>::const_iterator begin() const { return triples().begin(); }
  std::vector<Triple>::const_iterator end() const { return triples().end(); }

  // ---- access paths (permutation indexes) -----------------------------
  //
  // All lookups return contiguous ranges over one of the three
  // permutations (SPO / POS / OSP); ranges stay valid until the next
  // Insert.  Columns are 0 = subject, 1 = predicate, 2 = object.
  //
  // With a delta, a range found in only one of body and delta is
  // returned in place; otherwise (and for every read once the order's
  // merged view exists) the range points into Scan(order).

  /// Triples whose `column` equals `v`, in the order chosen by
  /// PlanAccess for that column.  O(log n) plus the range size; builds
  /// the needed permutation on first use (O(n log n), cached), and the
  /// merged view when both body and delta hold matches (O(n), cached).
  TripleRange Lookup(int column, ObjId v) const;

  /// Triples with `col_a` == `va` and `col_b` == `vb` (distinct
  /// columns).  Every column pair is some permutation's sorted prefix.
  TripleRange LookupPair(int col_a, ObjId va, int col_b, ObjId vb) const;

  /// The full set in the given permutation order.
  TripleRange Scan(IndexOrder order) const;

  /// Forces normalization plus the build of `order`'s full view (the
  /// body's permutation, and the merged view when a delta is pending),
  /// so subsequent const reads (Lookup / LookupPair / Scan on that
  /// order) touch no lazily-mutated state.  The lazy builds are
  /// single-writer, so threads that share one set call this first;
  /// concurrent reads after materialization are safe.
  void Materialize(IndexOrder order) const { (void)Scan(order); }

  /// True when `order` can be probed without a build (already built, or
  /// the SPO base).  Pending staged inserts make every order not-ready;
  /// a snapshot-backed set's SPO is not ready until its first decode,
  /// and with a delta an order is ready once its merged view is built.
  bool IndexReady(IndexOrder order) const {
    return staged_.empty() && block_ != nullptr && block_->Ready(order);
  }

  /// True when probing `order` is free or its build will be amortized:
  /// the SPO base, an already-built permutation, or a block or body
  /// shared with another set (e.g. the store's relation, which every
  /// later copy then probes for free).  A fresh intermediate result
  /// returns false for POS/OSP — its block dies with it, so a one-shot
  /// caller is better off with a linear scan.
  bool IndexAmortized(IndexOrder order) const;

  /// Exact per-column stats for access-path costing.  Builds every
  /// order's full view unless exact stats are cached.
  const TripleSetStats& Stats() const;

  /// The cached stats when already computed, nullptr otherwise — never
  /// forces a permutation build.  Planner estimates degrade to generic
  /// heuristics instead of paying O(n log n) builds a query may never
  /// need; once anything calls Stats() the exact counts appear, and
  /// writes keep them (TripleSetStats says what stays exact).
  const TripleSetStats* CachedStats() const {
    return staged_.empty() && block_ != nullptr && block_->stats_built
               ? &block_->stats
               : nullptr;
  }

  /// The reachability index attached to this set's block in `slot`
  /// (< TripleBlock::kReachSlots, one per projected graph), or nullptr
  /// when none is attached (or staged inserts are pending).
  /// Type-erased: core/reach/reach_index.h owns the concrete type and
  /// the slot numbering, and does the casting.  Never forces a build.
  std::shared_ptr<const void> CachedReachIndex(size_t slot = 0) const {
    return staged_.empty() && block_ != nullptr ? block_->reach[slot]
                                                : nullptr;
  }

  /// Attaches a reachability index to the block's `slot` (normalizing
  /// first, so it lands on the block holding the indexed triples).
  /// Copies sharing the block — including the store's relation when
  /// this set was copied out of a store — see it immediately; a write
  /// through any sharer moves that sharer onto a new block, without it.
  void AttachReachIndex(std::shared_ptr<const void> index,
                        size_t slot = 0) const {
    Normalize();
    block_->reach[slot] = std::move(index);
  }

  /// Adopts an already sorted, duplicate-free vector as the set's SPO
  /// body without re-sorting (debug-asserted).  For operators that
  /// produce output in globally sorted order, this skips the
  /// O(n log n) normalize sort that Insert-then-read would pay.
  static TripleSet FromSortedUnique(std::vector<Triple> triples);

  /// True while the set reads straight through an on-disk snapshot
  /// segment: no write has landed since it was opened.
  bool snapshot_backed() const {
    return block_ != nullptr && block_->body->source != nullptr &&
           !block_->HasDelta();
  }

  /// The body's backing source, or nullptr for in-memory bodies (test
  /// hook for decode_count / sharing assertions).
  const TripleSegmentSource* snapshot_source() const {
    return block_ != nullptr ? block_->body->source.get() : nullptr;
  }

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
    if (snapshot_source() != nullptr) (void)triples();
    return SnapshotHealth();
  }

  /// Set union / difference / intersection (merge on sorted vectors).
  static TripleSet Union(const TripleSet& a, const TripleSet& b);
  static TripleSet Difference(const TripleSet& a, const TripleSet& b);
  static TripleSet Intersection(const TripleSet& a, const TripleSet& b);

  bool operator==(const TripleSet& o) const { return triples() == o.triples(); }
  bool operator!=(const TripleSet& o) const { return !(*this == o); }

 private:
  /// Publishes the staged rows (TripleBlock::Write).  When that drops a
  /// snapshot-backed body, its decode health moves to decode_error_ so
  /// SnapshotHealth() keeps reporting it after the source is gone.
  void Normalize() const;
  /// The normalized block.
  TripleBlock& Block() const {
    Normalize();
    return *block_;
  }
  /// Serves a probe of `order`: `probe` maps a sorted run to the range
  /// of matches in it.
  template <typename Probe>
  TripleRange Find(IndexOrder order, Probe probe) const;
  explicit TripleSet(std::shared_ptr<TripleBlock> block)
      : block_(std::move(block)) {}
  /// A set whose body is `spo`, already sorted and duplicate-free.
  static TripleSet FromBody(std::vector<Triple> spo);

  mutable std::vector<Triple> staged_;  // pending inserts
  // Shared with copies; replaced by a write.  Never null except after
  // being moved from; Normalize re-creates it.
  mutable std::shared_ptr<TripleBlock> block_;
  // Sticky record of a decode failure of a snapshot body this set no
  // longer holds (compaction replaced it).
  mutable Status decode_error_ = Status::OK();
};

}  // namespace trial

#endif  // TRIAL_STORAGE_TRIPLE_SET_H_
