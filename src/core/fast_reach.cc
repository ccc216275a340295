#include "core/fast_reach.h"

#include <cstdint>
#include <vector>

#include "core/reach/graph.h"

namespace trial {
namespace {

// Both procedures run DFS over an adjacency relation read directly off
// the base set's permutation indexes — no edge vectors are materialized:
//
//  * Procedure 3 (any path): out-neighbors of u are the objects of the
//    contiguous SPO run with subject u; sources (every object position)
//    are the distinct object values, in ascending order.
//  * Procedure 4 (same middle): within the POS group of one middle m,
//    out-neighbors of u are base.LookupPair(s=u, p=m) — an SPO prefix
//    probe; sources are the group's distinct (m, o) runs.
//
// DFS visit marks are stamped with a running source counter, so one
// mark array serves every source without clearing.

constexpr uint32_t kUnset = UINT32_MAX;

// The node universe of the projected graph lives in core/reach/graph.h,
// shared with the interval reachability index.
using NodeMap = reach::NodeMap;

}  // namespace

TripleSet StarReachAnyPath(const TripleSet& base) {
  const std::vector<Triple>& spo = base.triples();
  if (spo.empty()) return TripleSet();
  NodeMap ids(base);

  // Adjacency from the SPO index: per subject, its contiguous run.
  std::vector<uint32_t> run_lo(ids.size(), 0), run_hi(ids.size(), 0);
  for (size_t i = 0; i < spo.size();) {
    size_t j = i;
    while (j < spo.size() && spo[j].s == spo[i].s) ++j;
    uint32_t u = ids.Dense(spo[i].s);
    run_lo[u] = static_cast<uint32_t>(i);
    run_hi[u] = static_cast<uint32_t>(j);
    i = j;
  }

  // Sources: the distinct object values, ascending — marked in dense
  // space and swept in dense (== raw) order, so no OSP permutation is
  // built; the dense node -> reach-set slot map drives output emission.
  std::vector<ObjId> sources;
  std::vector<uint32_t> slot_of(ids.size(), kUnset);
  for (const Triple& t : spo) slot_of[ids.Dense(t.o)] = 0;
  for (uint32_t d = 0; d < ids.size(); ++d) {
    if (slot_of[d] == kUnset) continue;
    slot_of[d] = static_cast<uint32_t>(sources.size());
    sources.push_back(ids.Raw(d));
  }

  // Per-source reflexive-transitive closure.
  std::vector<std::vector<ObjId>> reach(sources.size());
  std::vector<uint32_t> mark(ids.size(), kUnset), stack;
  for (size_t si = 0; si < sources.size(); ++si) {
    const uint32_t stamp = static_cast<uint32_t>(si);
    const uint32_t src = ids.Dense(sources[si]);
    std::vector<ObjId>& rs = reach[si];
    stack.assign(1, src);
    mark[src] = stamp;
    rs.push_back(sources[si]);
    while (!stack.empty()) {
      uint32_t u = stack.back();
      stack.pop_back();
      for (uint32_t e = run_lo[u]; e < run_hi[u]; ++e) {
        uint32_t v = ids.Dense(spo[e].o);
        if (mark[v] != stamp) {
          mark[v] = stamp;
          rs.push_back(spo[e].o);
          stack.push_back(v);
        }
      }
    }
  }

  // Emission: (s, p, l) for every base triple and every l reachable
  // from its object.
  std::vector<Triple> out;
  for (const Triple& t : spo) {
    for (ObjId l : reach[slot_of[ids.Dense(t.o)]]) {
      out.push_back(Triple{t.s, t.p, l});
    }
  }
  return TripleSet(std::move(out));
}

TripleSet StarReachSameMiddle(const TripleSet& base) {
  TripleRange pos = base.Scan(IndexOrder::kPOS);  // sorted (p, o, s)
  if (pos.empty()) return TripleSet();
  base.triples();  // the group DFS probes SPO prefixes: materialize
  NodeMap ids(base);

  // Per middle group of the POS permutation: one DFS per distinct
  // object, then (s, m, l) for every group triple and every l its
  // object reaches.  `si` stamps stay distinct across groups, so slot
  // entries from earlier groups are ignored via the generation guard
  // instead of a per-group clear.
  std::vector<uint32_t> mark(ids.size(), kUnset), stack;
  std::vector<uint32_t> slot(ids.size(), 0);  // dense node -> reach slot
  std::vector<uint32_t> slot_gen(ids.size(), kUnset);  // guards `slot`
  uint32_t next_si = 0;
  std::vector<std::vector<ObjId>> reach;
  std::vector<Triple> out;
  for (const Triple* gb = pos.begin(); gb != pos.end();) {
    const Triple* ge = gb;
    while (ge != pos.end() && ge->p == gb->p) ++ge;
    const ObjId mid = gb->p;
    const uint32_t group_gen = next_si;
    reach.clear();
    for (const Triple* t = gb; t != ge; ++t) {
      uint32_t src = ids.Dense(t->o);
      if (slot_gen[src] >= group_gen && slot_gen[src] != kUnset) {
        continue;  // o already a source in this group
      }
      uint32_t si = next_si++;
      slot_gen[src] = si;
      slot[src] = static_cast<uint32_t>(reach.size());
      reach.emplace_back();
      std::vector<ObjId>& rs = reach.back();
      stack.assign(1, src);
      mark[src] = si;
      rs.push_back(t->o);
      while (!stack.empty()) {
        ObjId u = ids.Raw(stack.back());
        stack.pop_back();
        for (const Triple& edge : base.LookupPair(0, u, 1, mid)) {
          uint32_t v = ids.Dense(edge.o);
          if (mark[v] != si) {
            mark[v] = si;
            rs.push_back(edge.o);
            stack.push_back(v);
          }
        }
      }
    }
    for (const Triple* t = gb; t != ge; ++t) {
      for (ObjId l : reach[slot[ids.Dense(t->o)]]) {
        out.push_back(Triple{t->s, mid, l});
      }
    }
    gb = ge;
  }
  return TripleSet(std::move(out));
}

}  // namespace trial
