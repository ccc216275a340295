#include "core/fast_reach.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/reach/graph.h"
#include "util/parallel.h"

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
// Parallel execution: every source's DFS (Procedure 3) and every middle
// group (Procedure 4) is independent, so chunks of the source/group
// list expand concurrently with chunk-private scratch; reach sets are
// indexed by source, not by worker, and output chunks merge in order,
// so results are identical for any thread count.  All permutations the
// workers read are materialized before the parallel sections.

constexpr uint32_t kUnset = UINT32_MAX;

// Output chunks flush their running row counts into the shared guard
// every this many rows, so a runaway star stops near the cap without an
// atomic operation per triple.
constexpr size_t kGuardStride = 4096;

// The result-size guard of one kernel call, shared by its output chunks.
class OutputGuard {
 public:
  explicit OutputGuard(size_t cap) : cap_(cap) {}

  // Called with a chunk's running output size and the part of it already
  // flushed; false once all chunks together have emitted past the cap.
  bool Admit(size_t produced, size_t* flushed) {
    if (overflow_.load(std::memory_order_relaxed)) return false;
    if (produced - *flushed < kGuardStride && produced <= cap_) return true;
    const size_t total =
        emitted_.fetch_add(produced - *flushed, std::memory_order_relaxed) +
        (produced - *flushed);
    *flushed = produced;
    if (total <= cap_) return true;
    overflow_.store(true, std::memory_order_relaxed);
    return false;
  }

  bool overflowed() const { return overflow_.load(); }

 private:
  const size_t cap_;
  std::atomic<size_t> emitted_{0};
  std::atomic<bool> overflow_{false};
};

Status StarTooLarge() {
  return Status::ResourceExhausted("star result too large");
}

// The node universe of the projected graph lives in core/reach/graph.h,
// shared with the interval reachability index.
using NodeMap = reach::NodeMap;

// DFS scratch sized by the dense node count; one per worker chunk,
// reused across that chunk's sources via stamps.  Procedure 3 needs
// only the visit marks (its slot map lives outside the scratch, shared
// read-only by the emission phase).
struct MarkScratch {
  explicit MarkScratch(size_t n) : mark(n, kUnset) {}

  std::vector<uint32_t> mark;   // stamped with a per-chunk source counter
  std::vector<uint32_t> stack;  // dense DFS stack
};

// Procedure 4 additionally tracks a per-middle-group slot map, with a
// generation guard so earlier groups need no clearing.
struct GroupScratch : MarkScratch {
  explicit GroupScratch(size_t n)
      : MarkScratch(n), slot(n, 0), slot_gen(n, kUnset) {}

  std::vector<uint32_t> slot;      // dense node -> local reach-set slot
  std::vector<uint32_t> slot_gen;  // generation guard for `slot`
};

}  // namespace

TripleSet StarReachAnyPath(const TripleSet& base, const ExecOptions& exec) {
  return *StarReachAnyPath(base, exec, std::numeric_limits<size_t>::max());
}

TripleSet StarReachSameMiddle(const TripleSet& base, const ExecOptions& exec) {
  return *StarReachSameMiddle(base, exec,
                              std::numeric_limits<size_t>::max());
}

Result<TripleSet> StarReachAnyPath(const TripleSet& base,
                                   const ExecOptions& exec,
                                   size_t max_result_triples) {
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

  // Per-source reflexive-transitive closure.  Each source writes only
  // its own reach slot, so source chunks expand concurrently.
  std::vector<std::vector<ObjId>> reach(sources.size());
  auto expand_chunk = [&](size_t begin, size_t end) {
    MarkScratch scratch(ids.size());
    for (size_t si = begin; si < end; ++si) {
      uint32_t stamp = static_cast<uint32_t>(si - begin);
      uint32_t src = ids.Dense(sources[si]);
      std::vector<ObjId>& rs = reach[si];
      scratch.stack.assign(1, src);
      scratch.mark[src] = stamp;
      rs.push_back(sources[si]);
      while (!scratch.stack.empty()) {
        uint32_t u = scratch.stack.back();
        scratch.stack.pop_back();
        for (uint32_t e = run_lo[u]; e < run_hi[u]; ++e) {
          uint32_t v = ids.Dense(spo[e].o);
          if (scratch.mark[v] != stamp) {
            scratch.mark[v] = stamp;
            rs.push_back(spo[e].o);
            scratch.stack.push_back(v);
          }
        }
      }
    }
  };
  size_t threads = exec.EffectiveThreads();
  if (exec.ShouldParallelize(sources.size())) {
    // One chunk per thread, not oversplit: every chunk pays an O(n)
    // scratch zero-fill, so fewer, larger chunks win here (the stamp
    // reuse amortizes the fill across the chunk's sources).
    std::vector<ChunkRange> chunks = SplitEven(sources.size(), threads);
    ParallelFor(chunks.size(), threads,
                [&](size_t c) { expand_chunk(chunks[c].begin, chunks[c].end); });
  } else {
    expand_chunk(0, sources.size());
  }

  // Emission: (s, p, l) for every base triple and every l reachable
  // from its object.
  OutputGuard guard(max_result_triples);
  auto emit = [&](size_t begin, size_t end, std::vector<Triple>* out) {
    size_t flushed = 0;
    for (size_t i = begin; i < end; ++i) {
      const Triple& t = spo[i];
      for (ObjId l : reach[slot_of[ids.Dense(t.o)]]) {
        out->push_back(Triple{t.s, t.p, l});
      }
      if (!guard.Admit(out->size(), &flushed)) return;
    }
  };
  std::vector<Triple> out;
  if (exec.ShouldParallelize(spo.size())) {
    out = ParallelChunkedCollect<Triple>(
        spo.size(), threads,
        [&](size_t, size_t begin, size_t end, std::vector<Triple>* chunk) {
          emit(begin, end, chunk);
        });
  } else {
    emit(0, spo.size(), &out);
  }
  if (guard.overflowed()) return StarTooLarge();
  return TripleSet(std::move(out));
}

Result<TripleSet> StarReachSameMiddle(const TripleSet& base,
                                      const ExecOptions& exec,
                                      size_t max_result_triples) {
  TripleRange pos = base.Scan(IndexOrder::kPOS);  // sorted (p, o, s)
  if (pos.empty()) return TripleSet();
  base.triples();  // the group DFS probes SPO prefixes: materialize
  NodeMap ids(base);

  // Middle-group boundaries off the POS permutation; groups are the
  // independent units of (parallel) work.
  std::vector<TripleRange> groups;
  for (const Triple* gb = pos.begin(); gb != pos.end();) {
    const Triple* ge = gb;
    while (ge != pos.end() && ge->p == gb->p) ++ge;
    groups.push_back({gb, ge});
    gb = ge;
  }

  // Processes groups [gbegin, gend), appending output triples in group
  // order; stops early once the guard trips.  Chunk-local scratch: `si`
  // stamps stay distinct across the chunk's groups, so slot entries from
  // earlier groups are ignored via the generation guard instead of a
  // per-group clear.
  OutputGuard guard(max_result_triples);
  auto process_groups = [&](size_t gbegin, size_t gend,
                            std::vector<Triple>* out) {
    size_t flushed = 0;
    GroupScratch scratch(ids.size());
    uint32_t next_si = 0;
    std::vector<std::vector<ObjId>> reach;
    for (size_t g = gbegin; g < gend; ++g) {
      const Triple* gb = groups[g].begin();
      const Triple* ge = groups[g].end();
      ObjId mid = gb->p;
      uint32_t group_gen = next_si;
      reach.clear();
      for (const Triple* t = gb; t != ge; ++t) {
        uint32_t src = ids.Dense(t->o);
        if (scratch.slot_gen[src] >= group_gen &&
            scratch.slot_gen[src] != kUnset) {
          continue;  // o already a source in this group
        }
        uint32_t si = next_si++;
        scratch.slot_gen[src] = si;
        scratch.slot[src] = static_cast<uint32_t>(reach.size());
        reach.emplace_back();
        std::vector<ObjId>& rs = reach.back();
        scratch.stack.assign(1, src);
        scratch.mark[src] = si;
        rs.push_back(t->o);
        while (!scratch.stack.empty()) {
          ObjId u = ids.Raw(scratch.stack.back());
          scratch.stack.pop_back();
          for (const Triple& edge : base.LookupPair(0, u, 1, mid)) {
            uint32_t v = ids.Dense(edge.o);
            if (scratch.mark[v] != si) {
              scratch.mark[v] = si;
              rs.push_back(edge.o);
              scratch.stack.push_back(v);
            }
          }
        }
      }
      for (const Triple* t = gb; t != ge; ++t) {
        for (ObjId l : reach[scratch.slot[ids.Dense(t->o)]]) {
          out->push_back(Triple{t->s, mid, l});
        }
        if (!guard.Admit(out->size(), &flushed)) return;
      }
    }
  };

  std::vector<Triple> out;
  if (exec.ShouldParallelize(pos.size()) && groups.size() > 1) {
    out = ParallelChunkedCollect<Triple>(
        groups.size(), exec.EffectiveThreads(),
        [&](size_t, size_t begin, size_t end, std::vector<Triple>* chunk) {
          process_groups(begin, end, chunk);
        });
  } else {
    process_groups(0, groups.size(), &out);
  }
  if (guard.overflowed()) return StarTooLarge();
  return TripleSet(std::move(out));
}

}  // namespace trial
