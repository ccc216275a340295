#include "core/reach/dijkstra.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace trial {
namespace reach {
namespace {

// Search state of a node the search has touched: its tentative
// distance, the SPO index of the edge that set it (none for src), and
// whether it is settled.
struct NodeState {
  int64_t dist = 0;
  uint32_t parent = 0;
  bool settled = false;
};

// NodeState per touched node, keyed by raw ObjId: an open-addressing
// table (linear probing, power-of-two size, at most half full) whose
// size follows the search, not the relation.  It allocates per
// doubling, not per node: under std::unordered_map a search that
// settles most of a small graph ran 1.6x slower than on dense arrays.
class StateMap {
 public:
  /// The state of `v` and whether it was just inserted (default
  /// state).  Invalidates references returned by earlier calls.
  std::pair<NodeState&, bool> Touch(ObjId v) {
    if (2 * (size_ + 1) > slots_.size()) Rehash();
    Slot& s = Probe(v);
    const bool fresh = s.key == kInvalidIntern;
    if (fresh) {
      s.key = v;
      ++size_;
    }
    return {s.state, fresh};
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kInvalidIntern) fn(s.key, s.state);
    }
  }

 private:
  struct Slot {
    ObjId key = kInvalidIntern;  // empty
    NodeState state;
  };

  Slot& Probe(ObjId v) {
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing of the id.
    size_t i = (v * 0x9e3779b97f4a7c15ULL >> 32) & mask;
    while (slots_[i].key != v && slots_[i].key != kInvalidIntern) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void Rehash() {
    std::vector<Slot> old(std::max<size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.key != kInvalidIntern) Probe(s.key) = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// Whether `v` is a subject or object of `base` (a node of its graph).
bool IsNode(const TripleSet& base, ObjId v) {
  return !base.Lookup(0, v).empty() || !base.Lookup(2, v).empty();
}

// Rejects a negative rho on any predicate of `base` up front: the
// error must not depend on how far the search got (early exit at dst
// would otherwise make it order-dependent).  Free when the store holds
// no negative integer rho at all.
Status CheckWeights(const TripleSet& base, const TripleStore& store) {
  size_t left = store.NumNegativeIntValues();
  for (ObjId p = 0; left > 0 && p < store.NumObjects(); ++p) {
    const DataValue& v = store.Value(p);
    if (!v.is_int() || v.AsInt() >= 0) continue;
    --left;
    if (!base.Lookup(1, p).empty()) {
      return Status::InvalidArgument(
          "negative edge weight rho(" + std::string(store.ObjectName(p)) +
          ") = " + std::to_string(v.AsInt()));
    }
  }
  return Status::OK();
}

}  // namespace

Result<ShortestPathResult> DijkstraShortestPath(const TripleSet& base,
                                                const TripleStore& store,
                                                ObjId src, ObjId dst) {
  ShortestPathResult r;
  const bool have_dst = dst != kInvalidIntern;
  if (have_dst && dst == src) {
    r.reached = true;  // trivially, by the empty path
    return r;
  }
  if (!IsNode(base, src)) return r;  // src has no edges: nothing reachable
  if (have_dst && !IsNode(base, dst)) return r;
  TRIAL_RETURN_IF_ERROR(CheckWeights(base, store));

  const Triple* spo = base.triples().data();
  StateMap state;
  // (distance, node), popped smallest-first; the node tie-break plus
  // strictly-smaller relaxation in SPO edge order pins the parent tree.
  using Entry = std::pair<int64_t, ObjId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  state.Touch(src);
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    NodeState& su = state.Touch(u).first;
    if (su.settled) continue;  // stale entry
    su.settled = true;
    ++r.settled;
    r.distance = std::max(r.distance, d);
    if (have_dst && u == dst) break;
    for (const Triple& t : base.Lookup(0, u)) {
      auto [sv, fresh] = state.Touch(t.o);
      if (sv.settled) continue;
      const DataValue& rho = store.Value(t.p);
      int64_t nd;
      if (__builtin_add_overflow(d, rho.is_int() ? rho.AsInt() : 1, &nd)) {
        return Status::InvalidArgument(
            "shortest path distance overflows int64 at " +
            store.TripleToString(t));
      }
      if (fresh || nd < sv.dist) {
        sv.dist = nd;
        sv.parent = static_cast<uint32_t>(&t - spo);
        pq.push({nd, t.o});
      }
    }
  }

  // Emit: parent edges are SPO indexes, so collecting them sorted
  // yields a sorted-unique subset of the base relation (each node has
  // its own parent edge) — adopted without a normalize sort.
  std::vector<uint32_t> edge_idx;
  if (have_dst) {
    const NodeState& sd = state.Touch(dst).first;
    if (!sd.settled) return r;  // unreachable
    r.reached = true;
    r.distance = sd.dist;
    for (ObjId v = dst; v != src; v = spo[edge_idx.back()].s) {
      edge_idx.push_back(state.Touch(v).first.parent);
    }
  } else {
    r.reached = true;
    state.ForEach([&](ObjId v, const NodeState& s) {
      if (s.settled && v != src) edge_idx.push_back(s.parent);
    });
  }
  std::sort(edge_idx.begin(), edge_idx.end());
  std::vector<Triple> edges;
  edges.reserve(edge_idx.size());
  for (uint32_t e : edge_idx) edges.push_back(spo[e]);
  r.edges = TripleSet::FromSortedUnique(std::move(edges));
  return r;
}

}  // namespace reach
}  // namespace trial
