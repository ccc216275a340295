#include "core/reach/graph.h"

#include <algorithm>

namespace trial {
namespace reach {

NodeMap::NodeMap(const TripleSet& base) {
  const std::vector<Triple>& spo = base.triples();
  if (spo.empty()) return;
  // Every node is a subject or an object, so |nodes| <= 2|T|.  When the
  // id range is small enough that it could still pass the direct-index
  // test below, one pass over SPO marks subjects and objects in an
  // id-indexed array, and an ascending sweep of the marks lists the
  // nodes in order: no sort, and no OSP permutation build.
  ObjId max_id = spo.back().s;
  for (const Triple& t : spo) max_id = std::max(max_id, t.o);
  const size_t bound = static_cast<size_t>(max_id) + 1;
  if (bound <= 8 * spo.size() + 1024) {
    direct_.assign(bound, kNoNode);
    for (const Triple& t : spo) direct_[t.s] = direct_[t.o] = 0;
    for (size_t id = 0; id < bound; ++id) {
      if (direct_[id] == kNoNode) continue;
      direct_[id] = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(static_cast<ObjId>(id));
    }
    if (bound > 4 * nodes_.size() + 1024) {
      direct_.clear();
      direct_.shrink_to_fit();
    }
    return;
  }
  // Sparse ids: sort the two columns' values.
  nodes_.reserve(2 * spo.size());
  for (const Triple& t : spo) {
    nodes_.push_back(t.s);
    nodes_.push_back(t.o);
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
}

Csr Csr::FromSpo(const std::vector<Triple>& spo, const NodeMap& ids) {
  Csr g;
  g.off.assign(ids.size() + 1, 0);
  g.to.resize(spo.size());
  // SPO is sorted by subject and dense order == raw order, so subject
  // runs appear dense-ascending: a degree prefix sum gives each run's
  // start at exactly its SPO position, making edge index == SPO index.
  for (const Triple& t : spo) ++g.off[ids.Dense(t.s) + 1];
  for (size_t u = 1; u < g.off.size(); ++u) g.off[u] += g.off[u - 1];
  for (size_t i = 0; i < spo.size(); ++i) g.to[i] = ids.Dense(spo[i].o);
  return g;
}

}  // namespace reach
}  // namespace trial
