// Permutation indexes over a TripleSet (the RDF-store "SPO/POS/OSP"
// design; see Ali et al., "A Survey of RDF Stores & SPARQL Engines").
//
// A TripleSet's canonical representation is a sorted, duplicate-free
// (s, p, o) vector — that vector *is* the SPO index.  The two extra
// permutations stored here, POS (sorted by p, o, s) and OSP (sorted by
// o, s, p), are enough to make any single bound column, and any bound
// pair of columns, a contiguous index range:
//
//   bound {s}         -> SPO prefix      bound {s, p} -> SPO prefix
//   bound {p}         -> POS prefix      bound {p, o} -> POS prefix
//   bound {o}         -> OSP prefix      bound {o, s} -> OSP prefix
//
// Permutations are built lazily on first lookup (copy + SortTriples)
// and cached.  The cache cell is *shared between copies* of a TripleSet:
// evaluators routinely copy base relations out of the store, and sharing
// means the first probe through any copy also warms the store's relation
// for every later copy.  A mutation (Insert) detaches the mutated set
// onto a fresh cell, leaving other sharers untouched.

#ifndef TRIAL_STORAGE_TRIPLE_INDEX_H_
#define TRIAL_STORAGE_TRIPLE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/triple.h"

namespace trial {

class TripleSegmentSource;

/// The three maintained permutations.  The enumerator value is the index
/// of the leading (most significant) column: 0 = s, 1 = p, 2 = o.
enum class IndexOrder : uint8_t { kSPO = 0, kPOS = 1, kOSP = 2 };

const char* IndexOrderName(IndexOrder order);

/// The k-th (0-based, most significant first) key column of an order:
/// IndexColumn(kPOS, 0) == 1 (p), IndexColumn(kPOS, 1) == 2 (o), ...
int IndexColumn(IndexOrder order, int k);

/// Comparator for `order`: SPO compares (s,p,o), POS (p,o,s), OSP (o,s,p).
bool IndexLess(IndexOrder order, const Triple& a, const Triple& b);

/// Below this many rows SortTriples uses a comparison sort: the radix
/// passes' fixed 2048-bucket histograms cost more than they save.
constexpr size_t kSortTriplesRadixMinRows = 512;

/// Sorts `v` by IndexLess(order), keeping duplicates — the one sort
/// kernel behind every triple sort in the storage layer (staged
/// normalize, POS/OSP builds, the loader's runs).  An LSD radix sort
/// with 11-bit digits over the key columns, least significant first.
/// Passes that cannot reorder anything are skipped: the digits above a
/// column's highest set bit, any digit that is the same on every row
/// (so a POS range with p pinned sorts on (o, s) alone), and the
/// columns of a key suffix the input is already sorted by (a POS build
/// from the SPO body never sorts on s).  One scratch buffer of n
/// triples is freed before returning.
void SortTriples(std::vector<Triple>* v, IndexOrder order);

/// A contiguous range of triples inside one permutation.  Iteration
/// yields full triples (the permutations store whole triples, not key
/// projections).  Pointers stay valid until the owning set's next
/// Insert, like TripleSet::triples().
struct TripleRange {
  const Triple* first = nullptr;
  const Triple* last = nullptr;

  const Triple* begin() const { return first; }
  const Triple* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// The planner hook: cheapest access path for a set of bound columns.
/// `prefix` is how many of the bound columns the chosen order serves as
/// its sorted prefix (0 when nothing is bound: full scan in SPO order).
/// Any one or two bound columns are always fully covered; all three
/// bound are served by SPO with prefix 3.
struct AccessPath {
  IndexOrder order = IndexOrder::kSPO;
  int prefix = 0;
};
AccessPath PlanAccess(bool bind_s, bool bind_p, bool bind_o);

/// One entry of a per-column aggregated projection: a value and how many
/// triples carry it in that column.
struct ValueFreq {
  ObjId value = 0;
  uint64_t count = 0;

  bool operator==(const ValueFreq& o) const {
    return value == o.value && count == o.count;
  }
};

/// Per-column statistics of a triple set, for costing access paths:
/// expected matches of a single-column lookup on column c is
/// num_triples / distinct[c].
///
/// The `topk` aggregated projections (RDF-3X's aggregated-index idea,
/// reduced to the heavy hitters) record the kAggTopK most frequent
/// values per column, ordered by count descending then value ascending
/// so the lists are deterministic.  Equi-join selectivity multiplies
/// matching frequencies exactly over these lists and falls back to a
/// containment assumption for the tails; columns whose lists are empty
/// (stats from an old snapshot) degrade to the independence heuristic.
struct TripleSetStats {
  /// Heavy-hitter list length.  Big enough to cover the head of a
  /// Zipf-ish distribution, small enough to persist and scan for free.
  static constexpr size_t kAggTopK = 32;

  size_t num_triples = 0;
  size_t distinct[3] = {0, 0, 0};  // distinct s / p / o values
  std::vector<ValueFreq> topk[3];  // per-column heavy hitters

  double ExpectedMatches(int column) const {
    return distinct[column] == 0
               ? 0.0
               : static_cast<double>(num_triples) /
                     static_cast<double>(distinct[column]);
  }

  /// True when column `c` carries an aggregated projection usable for
  /// exact-frequency estimation (empty for stats loaded from a snapshot
  /// written before the aggregated-stats section existed).
  bool HasAgg(int c) const { return !topk[c].empty(); }
};

/// Estimated output cardinality of the equi-join
///   {l in L, r in R : l[lcol] == r[rcol]}.
/// Exact sum of f_L(v) * f_R(v) over the shared heavy hitters, plus
/// head-times-tail cross terms at the other side's tail average, plus a
/// tail-tail term under the containment assumption
/// (tail_l * tail_r / max(tail-distinct)).  When either side lacks an
/// aggregated projection the whole estimate degrades to the classic
/// independence form |L|*|R| / max(distinct_l, distinct_r).
double EstimateEquiJoinRows(const TripleSetStats& l, int lcol,
                            const TripleSetStats& r, int rcol);

/// The lazily-built part of a TripleSet's index: the POS and OSP
/// permutations plus stats.  Owned via shared_ptr by every TripleSet
/// copy with the same normalized contents; TripleSet is the only caller.
struct TripleIndexCache {
  std::vector<Triple> pos, osp;
  bool pos_built = false;
  bool osp_built = false;
  // For a snapshot-backed set the SPO vector itself is lazy too: it is
  // decoded here, not stored in the TripleSet, so copies share the one
  // decode the same way they share the sorted permutations.
  std::vector<Triple> base;
  bool base_built = false;
  TripleSetStats stats;
  bool stats_built = false;
  // Derived reachability indexes over the set's projected graphs, one
  // slot per graph kind (core/reach/reach_index.h numbers them),
  // type-erased so the storage layer stays ignorant of the concrete
  // type.  Living on the cache cell gives them the permutation
  // indexes' exact lifecycle: shared between copies of the same
  // normalized contents, dropped when a mutation detaches the mutated
  // set onto a fresh cell.
  static constexpr size_t kReachSlots = 2;
  std::shared_ptr<const void> reach[kReachSlots];

  /// The permutation of `spo` for `order`, building it on first use
  /// (`order` must be kPOS or kOSP; kSPO is the base vector itself).
  const std::vector<Triple>& Permutation(const std::vector<Triple>& spo,
                                         IndexOrder order);

  /// Snapshot-backed variant: the permutation decoded straight from
  /// `src`'s compressed segment for `order` — O(n), no sort, the
  /// segments were written sorted.  On corruption the sticky diagnostic
  /// lands on `src` and the returned vector is empty.
  const std::vector<Triple>& SegmentPermutation(const TripleSegmentSource& src,
                                                IndexOrder order);

  bool Built(IndexOrder order) const {
    switch (order) {
      case IndexOrder::kSPO: return true;
      case IndexOrder::kPOS: return pos_built;
      case IndexOrder::kOSP: return osp_built;
    }
    return false;
  }

  /// Stats over `spo`; forces the POS and OSP builds (distinct-p and
  /// distinct-o counts walk the respective permutations).
  const TripleSetStats& Stats(const std::vector<Triple>& spo);
};

/// equal_range of triples whose `column` equals `v` inside the given
/// permutation vector (which must be sorted for an order whose leading
/// column is `column`).
TripleRange EqualRange(const std::vector<Triple>& sorted, IndexOrder order,
                       ObjId v);

/// equal_range on the two leading columns of `order`.  `lead` and
/// `second` are the values of the order's first and second key columns.
TripleRange EqualRangePair(const std::vector<Triple>& sorted, IndexOrder order,
                           ObjId lead, ObjId second);

}  // namespace trial

#endif  // TRIAL_STORAGE_TRIPLE_INDEX_H_
