// Permutation indexes over a TripleSet (the RDF-store "SPO/POS/OSP"
// design; see Ali et al., "A Survey of RDF Stores & SPARQL Engines").
//
// A sorted, duplicate-free (s, p, o) vector *is* the SPO index.  Two
// more permutations, POS (sorted by p, o, s) and OSP (sorted by o, s,
// p), make any single bound column, and any bound pair of columns, a
// contiguous index range:
//
//   bound {s}         -> SPO prefix      bound {s, p} -> SPO prefix
//   bound {p}         -> POS prefix      bound {p, o} -> POS prefix
//   bound {o}         -> OSP prefix      bound {o, s} -> OSP prefix
//
// Storage is x-RDF-3X's differential-index design.  A TripleBody is an
// immutable sorted run: the order it was born in (SPO for most sets,
// OSP for a selection served by a POS range with only p pinned), the
// other orders built lazily from a built one (copy + SortTriples) or,
// for a snapshot, decoded lazily from the segment.
// A TripleBlock is one published state of a set: a shared body plus a
// small sorted delta disjoint from it, kept in all three orders.  Reads
// that find their range in only one of the two return it in place; the
// others build the merged view of that order once (a linear merge, no
// sort) and cache it on the block.  A write publishes a new block that
// shares the old body and the permutations already built on it; once
// the delta passes 1/kCompactDivisor of the body the write compacts,
// merging body and delta one built permutation at a time.
//
// Every TripleSet copy shares its block (copying is a refcount bump),
// so the first build through any copy serves every later copy; lazy
// builds follow a single-writer rule (TripleSet::Materialize).

#ifndef TRIAL_STORAGE_TRIPLE_INDEX_H_
#define TRIAL_STORAGE_TRIPLE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/triple.h"

namespace trial {

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

/// The first element of [lo, end) for which `before` is false, where
/// `before` holds on a prefix of the range, found by galloping from lo:
/// O(log d) tests for a distance d, so k ordered searches over n
/// elements cost O(k log(n/k)) — a few rows into a long run and two
/// runs of equal length alike.
template <typename Before>
const Triple* Gallop(const Triple* lo, const Triple* end, Before before) {
  size_t step = 1;
  const Triple* hi = lo;
  while (hi != end && before(*hi)) {
    lo = hi + 1;
    hi = static_cast<size_t>(end - lo) > step ? lo + step : end;
    step *= 2;
  }
  return std::partition_point(lo, hi, before);
}

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
///
/// Cached stats survive writes (TripleSet::CachedStats): a write adds
/// the new rows to the old block's stats.  `num_triples` stays exact.
/// Column c stays exact — distinct count and heavy hitters — when the
/// body's permutation led by c is built, since each added value is
/// looked up there.  Otherwise an unseen value counts as new, so
/// `distinct[c]` is an upper bound, off by at most the delta's distinct
/// values in c, and only already-listed heavy hitters move until a
/// compaction recomputes the column.  TripleSet::Stats() is always
/// exact.
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

class TripleSegmentSource;

/// One immutable sorted, duplicate-free run of triples: a TripleSet's
/// body.  In memory it is born with one order built — SPO, or whichever
/// order its producer emitted — and sorts each other order from a built
/// one on first use, SPO included; snapshot-backed it decodes each order
/// from the segment source on first use (O(n), the segments were
/// written sorted).  Its triples never change after it is published —
/// lazy builds only fill in orders — so blocks share it behind a
/// shared_ptr.
struct TripleBody {
  std::vector<Triple> perm[3];  // by IndexOrder
  bool built[3] = {false, false, false};
  // Snapshot backing; null for in-memory bodies.
  std::shared_ptr<const TripleSegmentSource> source;

  /// The triple count: a built order's length, or for a snapshot body
  /// the metadata's count.
  size_t size() const;
  bool Built(IndexOrder order) const {
    return built[static_cast<int>(order)];
  }
  /// The run in `order`, built or decoded on first use.  An in-memory
  /// build sorts a copy of the built order that leaves the fewest radix
  /// passes, and counts as storage.perm_builds / storage.perm_build_ns
  /// when metrics are on.  A corrupt segment decodes to an empty vector
  /// and leaves its sticky diagnostic on the source.
  const std::vector<Triple>& Permutation(IndexOrder order);
};

/// One published state of a TripleSet, shared by all its copies: the
/// body, a delta disjoint from it, and what depends on their exact
/// union — the merged views, stats and reachability indexes.
struct TripleBlock {
  /// A write compacts once the delta would exceed 1/kCompactDivisor of
  /// the body, so sets under kCompactDivisor rows compact at once.
  static constexpr size_t kCompactDivisor = 16;
  /// Reachability index slots (core/reach/reach_index.h numbers them).
  static constexpr size_t kReachSlots = 2;

  TripleBlock();
  /// A block whose body is `rows`, sorted and duplicate-free in `order`,
  /// with that order alone built.
  TripleBlock(std::vector<Triple> rows, IndexOrder order);

  std::shared_ptr<TripleBody> body;  // never null
  // The rows not in the body, in every order (SPO, POS, OSP); small.
  std::vector<Triple> delta[3];
  // body ∪ delta per order, built on demand by a linear merge.
  std::vector<Triple> merged[3];
  bool merged_built[3] = {false, false, false};
  // See TripleSetStats for what a write keeps exact.  `stats_exact`
  // says every count and heavy hitter is exact for these triples.
  TripleSetStats stats;
  bool stats_built = false;
  bool stats_exact = false;
  // Type-erased reachability indexes over the set's projected graphs.
  // They live and die with the block: a write publishes a new block.
  std::shared_ptr<const void> reach[kReachSlots];

  size_t size() const { return body->size() + delta[0].size(); }
  bool HasDelta() const { return !delta[0].empty(); }
  /// True when View(order) needs no build.
  bool Ready(IndexOrder order) const {
    return HasDelta() ? merged_built[static_cast<int>(order)]
                      : body->Built(order);
  }
  /// The whole set in `order`: the body's permutation when the delta is
  /// empty, else the merged view (built on first use).
  const std::vector<Triple>& View(IndexOrder order);
  /// Exact stats: cached when exact, else linear passes over View of
  /// every order.
  const TripleSetStats& Stats();

  /// The block holding this block's triples plus `batch` (sorted and
  /// duplicate-free in SPO order): `old` itself when every row is
  /// already present, else a new block sharing old's body (rows go to
  /// the delta) or, past the compaction point, a new body.
  static std::shared_ptr<TripleBlock> Write(
      const std::shared_ptr<TripleBlock>& old, std::vector<Triple> batch);
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
