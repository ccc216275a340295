#include "core/reach/reach_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/metrics.h"

namespace trial {
namespace reach {
namespace {

// Cap on the emission reserve derived from the (near-exact)
// closure-size bound: 16Mi triples ≈ 192 MiB.  The bound over-counts
// only overlapping multi-object groups, so reserving it fully avoids
// the mid-emit regrow (a copy of the whole output) that dominated the
// large-output benchmark rows; the cap bounds the up-front allocation
// when the guard is going to abort the emission anyway.
constexpr size_t kEmitReserveCap = size_t{1} << 24;

// The label-product graph of `spo`: one node per distinct (p, x) with x
// a subject or object of a p-labelled triple, one edge (p, s) -> (p, o)
// per triple.  Fills `raw` (node -> x) and `obj_node` (SPO index ->
// its (p, o) node, the emission's closure handle).  Nodes are numbered
// in first-seen order over SPO through an open-addressing table (load
// at most 1/2); no key is all ones, which would need p and x both
// kInvalidIntern.
Csr LabelProductGraph(const std::vector<Triple>& spo, std::vector<ObjId>* raw,
                      std::vector<uint32_t>* obj_node) {
  constexpr uint64_t kEmptyKey = UINT64_MAX;
  int bits = 4;
  while ((size_t{1} << bits) < 4 * spo.size()) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<uint64_t> slot_key(mask + 1, kEmptyKey);
  std::vector<uint32_t> slot_node(mask + 1);
  auto node = [&](ObjId p, ObjId x) {
    const uint64_t k = uint64_t{p} << 32 | x;
    size_t h =
        static_cast<size_t>((k * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
    while (slot_key[h] != k) {
      if (slot_key[h] == kEmptyKey) {
        slot_key[h] = k;
        slot_node[h] = static_cast<uint32_t>(raw->size());
        raw->push_back(x);
        break;
      }
      h = (h + 1) & mask;
    }
    return slot_node[h];
  };
  std::vector<uint32_t> from(spo.size());
  obj_node->resize(spo.size());
  for (size_t i = 0; i < spo.size(); ++i) {
    from[i] = node(spo[i].p, spo[i].s);
    (*obj_node)[i] = node(spo[i].p, spo[i].o);
  }
  // CSR by subject node.
  Csr g;
  g.off.assign(raw->size() + 1, 0);
  for (uint32_t u : from) ++g.off[u + 1];
  for (size_t u = 1; u < g.off.size(); ++u) g.off[u] += g.off[u - 1];
  g.to.resize(spo.size());
  std::vector<uint32_t> cursor(g.off.begin(), g.off.end() - 1);
  for (size_t i = 0; i < spo.size(); ++i) {
    g.to[cursor[from[i]]++] = (*obj_node)[i];
  }
  return g;
}

}  // namespace

std::shared_ptr<const ReachIndex> ReachIndex::Cached(const TripleSet& base,
                                                     ReachGraph graph) {
  return std::static_pointer_cast<const ReachIndex>(
      base.CachedReachIndex(static_cast<size_t>(graph)));
}

std::shared_ptr<const ReachIndex> ReachIndex::GetOrBuild(const TripleSet& base,
                                                         ReachGraph graph) {
  std::shared_ptr<const ReachIndex> cached = Cached(base, graph);
  if (cached != nullptr) return cached;
  std::shared_ptr<const ReachIndex> built = Build(base, graph);
  base.AttachReachIndex(built, static_cast<size_t>(graph));
  return built;
}

std::shared_ptr<const ReachIndex> ReachIndex::Build(const TripleSet& base,
                                                    ReachGraph graph) {
  const uint64_t t0 = MonotonicNanos();
  std::shared_ptr<ReachIndex> idx(new ReachIndex());
  idx->graph_ = graph;
  const std::vector<Triple>& spo = base.triples();
  if (graph == ReachGraph::kSubjectObject) {
    idx->ids_ = NodeMap(base);
    idx->IndexGraph(Csr::FromSpo(spo, idx->ids_), idx->ids_.nodes());
    const NodeMap& ids = idx->ids_;
    auto size_of = [&](uint32_t d) -> uint64_t {
      return d == kNoNode ? 1 : idx->closure_size_[idx->comp_[d]];
    };
    for (const Triple& t : spo) {
      idx->walk_rows_[0] += size_of(ids.Dense(t.s));
      idx->walk_rows_[1] += size_of(ids.DenseOrNoNode(t.p));
      idx->walk_rows_[2] += size_of(ids.Dense(t.o));
    }
  } else {
    std::vector<ObjId> raw;
    Csr g = LabelProductGraph(spo, &raw, &idx->obj_node_);
    idx->IndexGraph(g, raw);
    for (uint32_t d : idx->obj_node_) {
      idx->walk_rows_[2] += idx->closure_size_[idx->comp_[d]];
    }
  }

  idx->build_ns_ = MonotonicNanos() - t0;
  if (MetricsEnabled()) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("reach.index_builds")->Increment();
    reg.GetHistogram("reach.index_build_ns")->Observe(idx->build_ns_);
  }
  return idx;
}

void ReachIndex::IndexGraph(const Csr& g, const std::vector<ObjId>& raw) {
  const uint32_t n = static_cast<uint32_t>(raw.size());
  num_nodes_ = n;

  // ---- Tarjan SCC contraction (iterative) ----------------------------
  //
  // Components are numbered in completion order, which for Tarjan is
  // reverse topological: every condensation edge goes from a higher
  // component id to a lower one.  That makes the component ids directly
  // usable as the postorder pids the interval labeling needs.
  comp_.assign(n, kNoNode);
  {
    std::vector<uint32_t> dfs_index(n, kNoNode), low(n, 0);
    std::vector<uint8_t> on_stack(n, 0);
    std::vector<uint32_t> stk;
    struct Frame {
      uint32_t v;
      uint32_t edge;  // next unexplored offset into g.to
    };
    std::vector<Frame> call;
    uint32_t counter = 0, sccs = 0;
    for (uint32_t r = 0; r < n; ++r) {
      if (dfs_index[r] != kNoNode) continue;
      call.push_back({r, g.off[r]});
      dfs_index[r] = low[r] = counter++;
      stk.push_back(r);
      on_stack[r] = 1;
      while (!call.empty()) {
        Frame& f = call.back();
        const uint32_t v = f.v;
        if (f.edge < g.off[v + 1]) {
          // Read and advance before any push: pushing may reallocate
          // the call stack and invalidate `f`.
          const uint32_t w = g.to[f.edge++];
          if (dfs_index[w] == kNoNode) {
            call.push_back({w, g.off[w]});
            dfs_index[w] = low[w] = counter++;
            stk.push_back(w);
            on_stack[w] = 1;
          } else if (on_stack[w] && dfs_index[w] < low[v]) {
            low[v] = dfs_index[w];
          }
          continue;
        }
        call.pop_back();
        if (!call.empty() && low[v] < low[call.back().v]) {
          low[call.back().v] = low[v];
        }
        if (low[v] == dfs_index[v]) {
          uint32_t w;
          do {
            w = stk.back();
            stk.pop_back();
            on_stack[w] = 0;
            comp_[w] = sccs;
          } while (w != v);
          ++sccs;
        }
      }
    }
    num_sccs_ = sccs;
  }
  const uint32_t nscc = num_sccs_;

  // ---- SCC member lists, grouped by pid ------------------------------
  //
  // Groups fill in dense order, which is raw order for the s→o graph
  // but first-seen order for the label-product graph; EnsureClosures
  // sorts every expanded closure, so nothing relies on either.
  members_off_.assign(nscc + 1, 0);
  for (uint32_t d = 0; d < n; ++d) ++members_off_[comp_[d] + 1];
  for (uint32_t p = 1; p <= nscc; ++p) {
    members_off_[p] += members_off_[p - 1];
  }
  members_.resize(n);
  {
    std::vector<uint32_t> cursor(members_off_.begin(),
                                 members_off_.end() - 1);
    for (uint32_t d = 0; d < n; ++d) {
      members_[cursor[comp_[d]]++] = raw[d];
    }
  }

  // ---- condensation adjacency (pid CSR) ------------------------------
  //
  // Sorted and deduplicated; every edge goes to a smaller pid.  Only
  // the labeling below reads it.
  std::vector<uint32_t> dag_off(nscc + 1, 0), dag_to;
  {
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t u = 0; u < n; ++u) {
      const uint32_t cu = comp_[u];
      for (uint32_t e = g.off[u]; e < g.off[u + 1]; ++e) {
        const uint32_t cv = comp_[g.to[e]];
        if (cu != cv) edges.emplace_back(cu, cv);
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (const auto& e : edges) ++dag_off[e.first + 1];
    for (uint32_t p = 1; p <= nscc; ++p) dag_off[p] += dag_off[p - 1];
    dag_to.reserve(edges.size());
    for (const auto& e : edges) dag_to.push_back(e.second);
  }

  // ---- interval labeling ---------------------------------------------
  //
  // Every condensation edge points to a smaller pid, so an ascending
  // sweep sees all successors before their predecessor and writes each
  // pid's intervals straight into the flat arrays.  Every pid in I(q)
  // is at most q, so a pid p with one successor q copies I(q) and then
  // extends its last interval (which ends at q) to p when q = p - 1, or
  // appends [p, p]: sorted and coalesced without a sort.  Only a pid
  // with several successors gathers their intervals, sorts and
  // coalesces.
  iv_off_.assign(nscc + 1, 0);
  closure_size_.assign(nscc, 0);
  std::vector<std::pair<uint32_t, uint32_t>> scratch;
  for (uint32_t p = 0; p < nscc; ++p) {
    const uint32_t e0 = dag_off[p], e1 = dag_off[p + 1];
    if (e1 - e0 <= 1) {
      closure_size_[p] = members_off_[p + 1] - members_off_[p];
      if (e1 > e0) {
        const uint32_t q = dag_to[e0];
        for (uint32_t i = iv_off_[q]; i < iv_off_[q + 1]; ++i) {
          const uint32_t lo = iv_lo_[i], hi = iv_hi_[i];  // push may move
          iv_lo_.push_back(lo);
          iv_hi_.push_back(hi);
        }
        closure_size_[p] += closure_size_[q];
      }
      if (e1 > e0 && iv_hi_.back() + 1 == p) {
        iv_hi_.back() = p;
      } else {
        iv_lo_.push_back(p);
        iv_hi_.push_back(p);
      }
    } else {
      scratch.assign(1, {p, p});
      for (uint32_t e = e0; e < e1; ++e) {
        const uint32_t q = dag_to[e];
        for (uint32_t i = iv_off_[q]; i < iv_off_[q + 1]; ++i) {
          scratch.emplace_back(iv_lo_[i], iv_hi_[i]);
        }
      }
      std::sort(scratch.begin(), scratch.end());
      // Coalesce: overlapping or adjacent intervals merge.
      const size_t first = iv_lo_.size();
      for (const auto& [lo, hi] : scratch) {
        if (iv_lo_.size() > first && lo <= iv_hi_.back() + 1) {
          iv_hi_.back() = std::max(iv_hi_.back(), hi);
        } else {
          iv_lo_.push_back(lo);
          iv_hi_.push_back(hi);
        }
      }
      for (size_t i = first; i < iv_lo_.size(); ++i) {
        closure_size_[p] +=
            members_off_[iv_hi_[i] + 1] - members_off_[iv_lo_[i]];
      }
    }
    iv_off_[p + 1] = static_cast<uint32_t>(iv_lo_.size());
  }
}

bool ReachIndex::Covers(uint32_t p, uint32_t t) const {
  const auto first = iv_lo_.begin() + iv_off_[p];
  const auto last = iv_lo_.begin() + iv_off_[p + 1];
  auto it = std::upper_bound(first, last, t);
  return it != first && iv_hi_[(it - iv_lo_.begin()) - 1] >= t;
}

bool ReachIndex::Reaches(ObjId from, ObjId to) const {
  if (from == to) return true;  // the star is reflexive
  const uint32_t df = ids_.DenseOrNoNode(from);
  const uint32_t dt = ids_.DenseOrNoNode(to);
  if (df == kNoNode || dt == kNoNode) return false;
  return Covers(comp_[df], comp_[dt]);
}

void ReachIndex::EnsureClosures() const {
  std::call_once(closures_once_, [&] {
    // The closure of a pid is the concatenation of one contiguous
    // member run per interval.
    closure_off_.resize(num_sccs_ + 1);
    closure_ids_.reserve(std::accumulate(closure_size_.begin(),
                                         closure_size_.end(), size_t{0}));
    for (uint32_t p = 0; p < num_sccs_; ++p) {
      closure_off_[p] = closure_ids_.size();
      for (uint32_t i = iv_off_[p]; i < iv_off_[p + 1]; ++i) {
        closure_ids_.insert(closure_ids_.end(),
                            members_.begin() + members_off_[iv_lo_[i]],
                            members_.begin() + members_off_[iv_hi_[i] + 1]);
      }
      std::sort(closure_ids_.begin() + closure_off_[p], closure_ids_.end());
    }
    closure_off_[num_sccs_] = closure_ids_.size();
  });
}

ReachIndex::Span ReachIndex::ClosureAt(const std::vector<Triple>& spo,
                                       size_t i, int col) const {
  if (graph_ == ReachGraph::kLabelProduct) {
    return ClosureOf(comp_[obj_node_[i]]);
  }
  const ObjId* v = col == 0 ? &spo[i].s : col == 1 ? &spo[i].p : &spo[i].o;
  const uint32_t d = ids_.DenseOrNoNode(*v);
  if (d == kNoNode) return {v, 1};  // outside the graph: reaches itself
  return ClosureOf(comp_[d]);
}

Result<TripleSet> ReachIndex::EmitWalk(const TripleSet& base, int col,
                                       size_t max_result_triples) const {
  if (col < 0 || col > 2 ||
      (graph_ == ReachGraph::kLabelProduct && col != 2)) {
    return Status::InvalidArgument("walk column not served by this index");
  }
  const std::vector<Triple>& spo = base.triples();
  if (spo.empty()) return TripleSet();
  EnsureClosures();

  // Output groups: runs of base triples whose outputs may coincide.
  // Walking column 2 a group is an (s, p) run, walking column 1 an s
  // run; each group's output is sorted and deduplicated on its own, so
  // the groups concatenate to the sorted result.  Column 0's outputs
  // (l, p, o) interleave across groups and are sorted once at the end.
  //
  // Emission is serial: it is a copy of memoized closures, bound by
  // writing (and first touching) the output.  Chunked parallel
  // emission, into per-chunk buffers or one presized vector, measured
  // slower than this loop at every size at 2 and 4 threads.
  const size_t n = spo.size();
  std::vector<Triple> out;
  // Never reserve (much) past the result guard: an overflowing emission
  // aborts without having paid its full allocation.
  const uint64_t guard_cap =
      max_result_triples < kEmitReserveCap
          ? static_cast<uint64_t>(max_result_triples) + 1
          : kEmitReserveCap;
  out.reserve(static_cast<size_t>(std::min(walk_rows_[col], guard_cap)));
  std::vector<ObjId> scratch;
  for (size_t b = 0; b < n;) {
    size_t e = b + 1;
    while (e < n && spo[e].s == spo[b].s &&
           (col != 2 || spo[e].p == spo[b].p)) {
      ++e;
    }
    if (col == 2 && e - b > 1) {
      // Several objects: merge their (possibly overlapping) sorted
      // closures, then dedup.
      scratch.clear();
      for (size_t i = b; i < e; ++i) {
        const Span c = ClosureAt(spo, i, col);
        const size_t mid = scratch.size();
        scratch.insert(scratch.end(), c.data, c.data + c.size);
        std::inplace_merge(scratch.begin(), scratch.begin() + mid,
                           scratch.end());
      }
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      for (ObjId l : scratch) out.push_back({spo[b].s, spo[b].p, l});
    } else {
      // One triple's outputs follow its sorted closure; several
      // triples' outputs (walking column 1) are sorted as a group.
      const auto at = static_cast<std::ptrdiff_t>(out.size());
      for (size_t i = b; i < e; ++i) {
        const Span c = ClosureAt(spo, i, col);
        Triple t = spo[i];
        ObjId& walked = col == 0 ? t.s : col == 1 ? t.p : t.o;
        for (size_t j = 0; j < c.size; ++j) {
          walked = c.data[j];
          out.push_back(t);
        }
      }
      if (col == 1 && e - b > 1) {
        std::sort(out.begin() + at, out.end());
        out.erase(std::unique(out.begin() + at, out.end()), out.end());
      }
    }
    if (out.size() > max_result_triples) {
      return Status::ResourceExhausted("star result too large");
    }
    b = e;
  }
  return col == 0 ? TripleSet(std::move(out))
                  : TripleSet::FromSortedUnique(std::move(out));
}

}  // namespace reach
}  // namespace trial
