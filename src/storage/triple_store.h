// TripleStore: the paper's triplestore database (Definition 1).
//
//   T = (O, E_1, ..., E_n, rho)
//
// O is a finite set of objects (interned strings), each E_i is a named
// ternary relation over O, and rho assigns a data value to every object.

#ifndef TRIAL_STORAGE_TRIPLE_STORE_H_
#define TRIAL_STORAGE_TRIPLE_STORE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/data_value.h"
#include "storage/triple.h"
#include "storage/triple_set.h"
#include "util/interner.h"
#include "util/status.h"

namespace trial {

/// Index of a named relation inside a store.
using RelId = uint32_t;

/// A triplestore database over interned objects.
class TripleStore {
 public:
  // ---- objects -------------------------------------------------------

  /// Interns `name` and returns its object id; rho defaults to null.
  ObjId InternObject(std::string_view name);

  /// Pre-sizes the object dictionary for about `n` objects.
  void ReserveObjects(size_t n) { objects_.Reserve(n); }

  /// Interns every object of a shard dictionary (bulk loader workers
  /// encode against private dictionaries) and returns the remap table:
  /// remap[shard_id] = global ObjId.  rho for new objects is null.
  std::vector<ObjId> MergeDictionary(const StringInterner& shard);

  /// Adopts a whole dictionary as the store's objects, ids unchanged,
  /// with null rho for each: the bulk loader's first shard (its triples
  /// need no remap) or a snapshot's frozen block.  Pre: the store is
  /// empty of objects.
  void AdoptDictionary(StringInterner dict);

  /// Id of an existing object or kInvalidIntern.
  ObjId FindObject(std::string_view name) const {
    return objects_.TryGet(name);
  }

  /// Display name of an object.  Pre: id < NumObjects().
  std::string_view ObjectName(ObjId id) const { return objects_.Get(id); }

  /// Number of objects in O (the "|O|" of the complexity bounds).
  size_t NumObjects() const { return objects_.size(); }

  // ---- rho (data values) ---------------------------------------------

  /// Sets rho(id).  Pre: id < NumObjects().
  void SetValue(ObjId id, DataValue v);

  /// rho(id); null if never set.  Pre: id < NumObjects().
  const DataValue& Value(ObjId id) const;

  /// Whether rho(a) = rho(b) (the "~" relation of the encoding I_T).
  bool SameValue(ObjId a, ObjId b) const { return Value(a) == Value(b); }

  /// How many objects have a negative integer rho.  Kept by SetValue
  /// (the only writer of rho), so weighted shortest paths validate
  /// their edge weights for free when it is zero.
  size_t NumNegativeIntValues() const { return negative_ints_; }

  // ---- relations ------------------------------------------------------

  /// Creates (or finds) a named relation; returns its id.
  RelId AddRelation(std::string_view name);

  // ---- snapshot open hooks (see storage/segment/store_snapshot.h) ----

  /// Creates relation `name` backed by a snapshot segment source (no
  /// triple data decoded).  Pre: the relation does not exist yet.
  RelId AddSnapshotRelation(std::string_view name,
                            std::shared_ptr<const TripleSegmentSource> source);

  /// OK unless some lazy segment decode hit corruption — then the first
  /// relation's sticky diagnostic.  Evaluator entry points check this
  /// after executing so corrupt snapshots fail queries loudly.
  Status SnapshotStatus() const;

  /// Relation lookup by name; nullptr when absent.
  const TripleSet* FindRelation(std::string_view name) const;
  TripleSet* MutableRelation(std::string_view name);

  /// Relation access by id.  Pre: id < NumRelations().
  const TripleSet& Relation(RelId id) const { return relations_[id]; }
  TripleSet& MutableRelation(RelId id) {
    ++epoch_;  // conservative: handing out mutable access may mutate
    return relations_[id];
  }
  std::string_view RelationName(RelId id) const { return rel_names_[id]; }
  size_t NumRelations() const { return relations_.size(); }

  /// Convenience: interns s/p/o and inserts the triple into `rel`
  /// (creating the relation if needed).
  Triple Add(std::string_view rel, std::string_view s, std::string_view p,
             std::string_view o);

  /// Inserts an id-level triple.  Pre: ids valid; relation exists.
  void Add(RelId rel, ObjId s, ObjId p, ObjId o) {
    ++epoch_;
    relations_[rel].Insert(s, p, o);
  }

  /// Stages a whole batch of id-level triples into `rel` (the bulk
  /// loader's per-worker sorted runs; any vector is accepted).  The
  /// relation normalizes it on the next read exactly as per-triple Add
  /// rows: into its small delta, or past the compaction point into a
  /// new body (TripleSet, triple_index.h).
  /// Pre: ids valid; relation exists.
  void BulkAppend(RelId rel, std::vector<Triple> batch) {
    ++epoch_;
    relations_[rel].InsertBatch(std::move(batch));
  }

  /// Total triple count over all relations (the "|T|" of the bounds).
  size_t TotalTriples() const;

  /// Per-relation index statistics (triple count, distinct s/p/o) for
  /// access-path costing.  Builds the relation's permutation indexes on
  /// first use; cached until the relation is mutated.
  /// Pre: id < NumRelations().
  const TripleSetStats& RelationStats(RelId id) const {
    return relations_[id].Stats();
  }

  // ---- mutation epoch -------------------------------------------------

  /// Monotonic counter bumped by every mutating entry point (object
  /// interning, rho updates, relation creation/insertion, mutable
  /// relation access).  Caches keyed on store contents — the plan cache
  /// and the cardinality FeedbackCache — compare epochs to detect
  /// staleness without hashing the data.
  uint64_t Epoch() const { return epoch_; }

  // ---- display --------------------------------------------------------

  /// "(s, p, o)" with object names.
  std::string TripleToString(const Triple& t) const;

  /// Multi-line rendering of a TripleSet, one "(s, p, o)" per line, in
  /// sorted order; used by examples and golden tests.
  std::string ToString(const TripleSet& set) const;

 private:
  StringInterner objects_;
  std::vector<DataValue> rho_;
  size_t negative_ints_ = 0;  // objects whose rho is an integer < 0
  std::vector<std::string> rel_names_;
  std::unordered_map<std::string, RelId> rel_index_;
  std::vector<TripleSet> relations_;
  uint64_t epoch_ = 0;
};

}  // namespace trial

#endif  // TRIAL_STORAGE_TRIPLE_STORE_H_
