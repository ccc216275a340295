// Shared graph scaffolding for the reachability subsystem: the dense
// node universe of a relation's projected graph and its CSR adjacency.
//
// A TriAL relation R projects onto the graph whose nodes are R's
// distinct subjects and objects and whose edges are s -> o per triple.
// The arbitrary-path star (R JOIN[1,2,3'; 3=1'])* is exactly
// reflexive-transitive reachability over that graph, and weighted
// shortest paths read edge weights off rho(p).  The DFS fast paths
// (core/fast_reach.cc) and the interval reachability index
// (reach_index.h) work in this dense node space so scratch arrays
// scale with the *set's* node count, not the store-wide intern id
// space.  Dijkstra (dijkstra.h) uses neither NodeMap nor Csr: it walks
// SPO ranges.

#ifndef TRIAL_CORE_REACH_GRAPH_H_
#define TRIAL_CORE_REACH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "storage/triple_set.h"

namespace trial {
namespace reach {

/// "No such node" sentinel for dense ids (also the NodeMap's internal
/// unset marker).
inline constexpr uint32_t kNoNode = UINT32_MAX;

/// The node universe of the projected graph: distinct subjects ∪
/// distinct objects as a sorted id list.  Dense ids are positions in
/// that list — so dense order equals raw ObjId order, which downstream
/// code exploits (a dense-ascending walk visits raw ids ascending).
/// The id→dense map is a direct-indexed vector when the raw id range
/// is comparably small (O(1) lookups), a binary search otherwise; the
/// node list and the dense ids are the same either way.  Construction
/// reads only the SPO order, so it never forces a permutation build.
class NodeMap {
 public:
  NodeMap() = default;  // empty graph
  explicit NodeMap(const TripleSet& base);

  /// Dense id of `o`, which must be a node of the graph (a subject or
  /// object of the base set) — unchecked otherwise.
  uint32_t Dense(ObjId o) const {
    if (!direct_.empty()) return direct_[o];
    return static_cast<uint32_t>(
        std::lower_bound(nodes_.begin(), nodes_.end(), o) - nodes_.begin());
  }

  /// Dense id of `o`, or kNoNode when `o` is not a node of the graph.
  /// Safe for arbitrary ids (user-supplied endpoints).
  uint32_t DenseOrNoNode(ObjId o) const {
    if (!direct_.empty()) {
      return o < direct_.size() ? direct_[o] : kNoNode;
    }
    auto it = std::lower_bound(nodes_.begin(), nodes_.end(), o);
    if (it == nodes_.end() || *it != o) return kNoNode;
    return static_cast<uint32_t>(it - nodes_.begin());
  }

  ObjId Raw(uint32_t dense) const { return nodes_[dense]; }
  size_t size() const { return nodes_.size(); }
  /// The sorted node list: Raw for every dense id.
  const std::vector<ObjId>& nodes() const { return nodes_; }
  /// True when Dense is a direct-indexed lookup (dense raw id range).
  bool direct() const { return !direct_.empty(); }

 private:
  std::vector<ObjId> nodes_;      // sorted distinct subject/object ids
  std::vector<uint32_t> direct_;  // empty: use binary search
};

/// CSR adjacency of the projected graph in dense-node space.  Edge
/// order follows the SPO permutation exactly: the edges of node u are
/// positions [off[u], off[u+1]) and edge index i *is* SPO index i
/// (dense order == raw order, and SPO sorts by subject first, so
/// subject runs land in dense-ascending order).  Callers that need the
/// edge's predicate or full triple read spo[i] back through the index.
struct Csr {
  std::vector<uint32_t> off;  // size() == nodes + 1
  std::vector<uint32_t> to;   // dense targets, one per SPO triple

  static Csr FromSpo(const std::vector<Triple>& spo, const NodeMap& ids);

  size_t num_nodes() const { return off.empty() ? 0 : off.size() - 1; }
};

}  // namespace reach
}  // namespace trial

#endif  // TRIAL_CORE_REACH_GRAPH_H_
