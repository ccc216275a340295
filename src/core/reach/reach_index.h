// FERRARI-style interval reachability index over a relation's projected
// graph (Seufert et al., ICDE 2013; the standard reachability-index
// design in modern RDF engines — see the survey in PAPERS.md).
//
// Construction: Tarjan SCC contraction, then per-SCC interval sets over
// a postorder numbering of the condensation DAG.  Tarjan identifies
// SCCs in reverse topological order, so its component ids *are* a
// postorder: every condensation edge goes from a higher pid to a lower
// one.  The interval set of pid p is then
//
//   I(p) = coalesce({[p,p]} ∪ ⋃ { I(q) : p -> q })
//
// computable in one ascending-pid sweep (successors first), and
// membership `t ∈ I(s)` decides reach(s, t) by binary search.  Every
// interval is exact, so the index answers any pair in O(log k).  A pid
// with one successor q extends I(q) by p without a sort (every pid in
// I(q) is at most q < p); only pids with several successors sort and
// coalesce.  Construction is serial and deterministic.  Built indexes
// are cached on the TripleSet's shared block (GetOrBuild): shared
// between copies, dropped when a write moves the written set onto a
// new block.
//
// Walk stars.  A right star (R JOIN[.; i=1'])* whose output keeps the
// two other left positions and takes 3' in position i moves position i
// of every base triple along R's s→o graph:
//
//   { t[i := l] : t ∈ R, t[i] ->* l }          (reflexive: l = t[i])
//
// i = 3 is the arbitrary-path star of Procedure 3; i = 2 lifts the
// middle (the paper's `(E JOIN[1,3',3; 2=1'])*`).  The same-middle star
// (R JOIN[1,2,3'; 3=1', 2=2'])* of Procedure 4 is the i = 3 walk
// partitioned by label: it walks the label-product graph, whose nodes
// are (p, x) pairs and whose edges are (p, s) -> (p, o) per triple.
// EmitWalk materializes any of them — byte-identical to Procedures 3/4
// and the naive fixpoint — by expanding memoized per-SCC closures
// instead of running a DFS per source: a closure is a handful of
// contiguous runs of the pid-grouped member array, one per interval.

#ifndef TRIAL_CORE_REACH_REACH_INDEX_H_
#define TRIAL_CORE_REACH_REACH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/reach/graph.h"
#include "storage/triple_set.h"
#include "util/status.h"

namespace trial {
namespace reach {

/// The projected graph an index is built over.  The value is the
/// index's slot on the TripleSet's block.
enum class ReachGraph : uint8_t {
  /// Nodes: R's subjects and objects; edges s -> o per triple.
  kSubjectObject = 0,
  /// Nodes: (p, x) for x a subject or object of a p-labelled triple;
  /// edges (p, s) -> (p, o) per triple.  One s→o graph per label.
  kLabelProduct = 1,
};

class ReachIndex {
 public:
  /// Builds the index over `base`'s `graph` projection.  Records
  /// reach.index_builds / reach.index_build_ns when metrics are enabled.
  static std::shared_ptr<const ReachIndex> Build(
      const TripleSet& base, ReachGraph graph = ReachGraph::kSubjectObject);

  /// The `graph` index attached to `base`'s block, or nullptr.  Never
  /// builds.  A write to `base` since the attach returns nullptr (the
  /// written set moved onto a new block).
  static std::shared_ptr<const ReachIndex> Cached(
      const TripleSet& base, ReachGraph graph = ReachGraph::kSubjectObject);

  /// Cached(base, graph), or Build + attach on miss.  Copies of `base`
  /// sharing its block — including the store relation it was
  /// copied from — see the attached index immediately.
  static std::shared_ptr<const ReachIndex> GetOrBuild(
      const TripleSet& base, ReachGraph graph = ReachGraph::kSubjectObject);

  /// Reflexive-transitive reachability over the s→o graph (a
  /// kSubjectObject index).  Ids absent from the graph reach exactly
  /// themselves.
  bool Reaches(ObjId from, ObjId to) const;

  /// Materializes the walk star moving column `col` (0..2) for the base
  /// set the index was built over (any set with identical contents):
  /// {t[col := l] : t ∈ base, t[col] ->* l}.  A kSubjectObject index
  /// serves every column; a kLabelProduct index serves column 2 only,
  /// the same-middle star (InvalidArgument for any other column).
  /// Byte-identical to the naive fixpoint (and to Procedures 3/4 for
  /// their stars).  ResourceExhausted as soon as the rows emitted pass
  /// `max_result_triples`, counted after each output group's
  /// duplicates merge (for column 0, whose groups interleave, before
  /// the final merge).
  Result<TripleSet> EmitWalk(const TripleSet& base, int col,
                             size_t max_result_triples) const;

  /// Σ over base triples of the closure size of their column-`col`
  /// node (1 for a value outside the graph): EmitWalk's output count
  /// before duplicates merge.  Exact unless two triples of one output
  /// group — same values outside `col` — reach overlapping closures.
  /// 0 for a column the index does not serve.
  uint64_t walk_output_rows(int col) const { return walk_rows_[col]; }

  ReachGraph graph() const { return graph_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_sccs() const { return num_sccs_; }
  size_t num_intervals() const { return iv_lo_.size(); }
  uint64_t build_ns() const { return build_ns_; }

 private:
  ReachIndex() = default;

  /// A sorted closure: `size` raw ids from `data`.
  struct Span {
    const ObjId* data;
    size_t size;
  };

  /// SCC contraction, member lists, condensation and interval labels
  /// over `g`, whose dense node d stands for raw id `raw[d]`.
  void IndexGraph(const Csr& g, const std::vector<ObjId>& raw);
  /// True when an interval of `p` covers pid `t`.
  bool Covers(uint32_t p, uint32_t t) const;
  /// Memoized per-SCC sorted closures (raw ids), built on first
  /// EmitWalk.  Thread-safe via call_once.
  void EnsureClosures() const;
  /// The closure of pid `p`, after EnsureClosures.
  Span ClosureOf(uint32_t p) const {
    return {closure_ids_.data() + closure_off_[p],
            closure_off_[p + 1] - closure_off_[p]};
  }
  /// The closure of column `col` of `spo[i]`, after EnsureClosures.
  Span ClosureAt(const std::vector<Triple>& spo, size_t i, int col) const;

  ReachGraph graph_ = ReachGraph::kSubjectObject;
  NodeMap ids_;                     // kSubjectObject: raw id -> dense
  std::vector<uint32_t> obj_node_;  // kLabelProduct: SPO index -> (p, o)
  uint32_t num_nodes_ = 0;
  std::vector<uint32_t> comp_;  // dense node -> pid
  uint32_t num_sccs_ = 0;

  // Raw member ids grouped by pid, in dense order within each group.
  std::vector<uint32_t> members_off_;  // num_sccs_ + 1
  std::vector<ObjId> members_;

  // Per-pid interval sets over pid space, sorted by lo, disjoint and
  // non-adjacent after coalescing.
  std::vector<uint32_t> iv_off_;  // num_sccs_ + 1
  std::vector<uint32_t> iv_lo_, iv_hi_;

  // Closure cardinality per pid (raw nodes reachable from the SCC,
  // itself included).
  std::vector<uint64_t> closure_size_;

  uint64_t walk_rows_[3] = {0, 0, 0};
  uint64_t build_ns_ = 0;

  // Every pid's sorted closure, concatenated in pid order: one
  // allocation instead of one per SCC (most closures hold an id or
  // two, which a vector per SCC pays ~50 bytes of overhead for).
  mutable std::once_flag closures_once_;
  mutable std::vector<size_t> closure_off_;  // num_sccs_ + 1
  mutable std::vector<ObjId> closure_ids_;
};

}  // namespace reach
}  // namespace trial

#endif  // TRIAL_CORE_REACH_REACH_INDEX_H_
