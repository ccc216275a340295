// Weighted single-source shortest paths over a relation's projected
// graph — the DijkstraScan physical operator's kernel.
//
// Edge weights come from the attribute function rho applied to the
// *predicate* of each triple: an integer rho(p) is the weight of every
// edge labeled p, any other value (null, string, tuple) defaults to 1,
// so an unweighted store still answers hop-count shortest paths.
// Negative integer weights are rejected (InvalidArgument) — Dijkstra's
// invariant needs non-negative edges — when rho(p) < 0 for any
// predicate p of the relation, however far the search would get.  A
// distance that overflows int64 is rejected too, never wrapped.
//
// Cost: the search expands a node by walking its SPO range
// (TripleSet::Lookup on the subject column, free on the SPO base) and
// keeps its state in a hash table over the nodes it touches, so a
// query costs O(S log |E| + D log D) for S settled nodes and their D
// out-edges, with no pass over E.  The negative-weight check is free while the store holds no
// negative integer rho (TripleStore::NumNegativeIntValues); otherwise
// it scans rho for those objects and probes the relation's predicate
// column once per object found.
//
// Deterministic by construction: the priority queue breaks distance
// ties on the smaller node id, relaxation requires a strictly smaller
// distance and scans edges in SPO order, so the parent tree — and with
// it the emitted edge set — is identical on every run.

#ifndef TRIAL_CORE_REACH_DIJKSTRA_H_
#define TRIAL_CORE_REACH_DIJKSTRA_H_

#include <cstdint>

#include "storage/triple_set.h"
#include "storage/triple_store.h"
#include "util/interner.h"
#include "util/status.h"

namespace trial {
namespace reach {

struct ShortestPathResult {
  /// With a destination: the edges of one shortest src -> dst path, in
  /// path order a subset of the base relation.  Without: the full
  /// shortest-path tree (one parent edge per reachable node).  Empty
  /// when nothing is reachable (or src == dst).
  TripleSet edges;
  /// With a destination: whether dst is reachable from src.  Without:
  /// true iff src is a node of the graph.
  bool reached = false;
  /// dist(src, dst) when reached (0 for src == dst); meaningless
  /// otherwise.  Without a destination: the largest finite distance in
  /// the tree (the graph's eccentricity from src).
  int64_t distance = 0;
  /// Nodes settled before termination (early exit at dst).
  size_t settled = 0;
};

/// Dijkstra from `src` over `base`'s projected graph, weights from
/// `store`'s rho as described above.  `dst == kInvalidIntern` computes
/// the full shortest-path tree instead of one path.
Result<ShortestPathResult> DijkstraShortestPath(const TripleSet& base,
                                                const TripleStore& store,
                                                ObjId src,
                                                ObjId dst = kInvalidIntern);

}  // namespace reach
}  // namespace trial

#endif  // TRIAL_CORE_REACH_DIJKSTRA_H_
