#include "storage/triple_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "storage/segment/segment_source.h"
#include "util/metrics.h"

namespace trial {
namespace {

// Key columns of each order, most significant first.
constexpr int kOrderCols[3][3] = {
    {0, 1, 2},  // SPO
    {1, 2, 0},  // POS
    {2, 0, 1},  // OSP
};

const int* Cols(IndexOrder order) {
  return kOrderCols[static_cast<int>(order)];
}

}  // namespace

int IndexColumn(IndexOrder order, int k) { return Cols(order)[k]; }

const char* IndexOrderName(IndexOrder order) {
  switch (order) {
    case IndexOrder::kSPO: return "SPO";
    case IndexOrder::kPOS: return "POS";
    case IndexOrder::kOSP: return "OSP";
  }
  return "?";
}

bool IndexLess(IndexOrder order, const Triple& a, const Triple& b) {
  const int* c = Cols(order);
  if (a[c[0]] != b[c[0]]) return a[c[0]] < b[c[0]];
  if (a[c[1]] != b[c[1]]) return a[c[1]] < b[c[1]];
  return a[c[2]] < b[c[2]];
}

namespace {

constexpr int kDigitBits = 11;
constexpr size_t kRadix = size_t{1} << kDigitBits;
constexpr ObjId kDigitMask = static_cast<ObjId>(kRadix - 1);

static_assert(sizeof(Triple) == 3 * sizeof(ObjId), "Triple is (s, p, o)");

// Column `c` of `t` by index, without the branches of Triple::operator[].
ObjId Field(const Triple& t, int c) {
  ObjId f[3];
  std::memcpy(f, &t, sizeof f);
  return f[c];
}

// One scatter pass: a key column and the shift of its digit.
struct RadixPass {
  int col = 0;
  int shift = 0;
  ObjId Digit(const Triple& t) const {
    return (Field(t, col) >> shift) & kDigitMask;
  }
};

}  // namespace

void SortTriples(std::vector<Triple>* v, IndexOrder order) {
  const size_t n = v->size();
  if (n < kSortTriplesRadixMinRows) {
    std::sort(v->begin(), v->end(), [order](const Triple& a, const Triple& b) {
      return IndexLess(order, a, b);
    });
    return;
  }
  const int* cols = Cols(order);
  // Each column's set bits, and the key suffixes (least significant
  // columns first) the input is already sorted by: LSD passes over
  // such a suffix are stable no-ops.
  const Triple* data = v->data();
  ObjId bits[3] = {0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    bits[0] |= data[i].s;
    bits[1] |= data[i].p;
    bits[2] |= data[i].o;
  }
  bool sorted[3] = {true, true, true};  // by key columns k..2
  for (size_t i = 1; i < n && (sorted[0] || sorted[1] || sorted[2]); ++i) {
    const ObjId a0 = Field(data[i - 1], cols[0]);
    const ObjId a1 = Field(data[i - 1], cols[1]);
    const ObjId a2 = Field(data[i - 1], cols[2]);
    const ObjId b0 = Field(data[i], cols[0]);
    const ObjId b1 = Field(data[i], cols[1]);
    const ObjId b2 = Field(data[i], cols[2]);
    sorted[2] = sorted[2] && a2 <= b2;
    sorted[1] = sorted[1] && (a1 != b1 ? a1 < b1 : a2 <= b2);
    sorted[0] = sorted[0] &&
                (a0 != b0 ? a0 < b0 : a1 != b1 ? a1 < b1 : a2 <= b2);
  }
  int skip_from = 3;  // key columns k >= skip_from need no pass
  for (int k = 2; k >= 0; --k) {
    if (sorted[k]) skip_from = k;
  }
  // The passes, least significant first, stopping at each column's
  // highest set bit.
  RadixPass passes[9] = {};
  int num_passes = 0;
  for (int k = skip_from - 1; k >= 0; --k) {
    const int c = cols[k];
    for (int shift = 0; shift < 32 && (bits[c] >> shift) != 0;
         shift += kDigitBits) {
      passes[num_passes++] = {c, shift};
    }
  }
  if (num_passes == 0) return;
  // Every pass's histogram in one more read pass.
  std::vector<size_t> hist(num_passes * kRadix, 0);
  for (const Triple& t : *v) {
    for (int i = 0; i < num_passes; ++i) {
      ++hist[i * kRadix + passes[i].Digit(t)];
    }
  }
  std::vector<Triple> scratch;
  Triple* src = v->data();
  Triple* dst = nullptr;
  for (int i = 0; i < num_passes; ++i) {
    size_t* off = &hist[i * kRadix];
    // A digit shared by every row leaves the order as it is.
    if (off[passes[i].Digit(src[0])] == n) continue;
    if (dst == nullptr) {
      scratch.resize(n);
      dst = scratch.data();
    }
    size_t sum = 0;
    for (size_t d = 0; d < kRadix; ++d) {
      const size_t count = off[d];
      off[d] = sum;
      sum += count;
    }
    const RadixPass pass = passes[i];
    for (size_t j = 0; j < n; ++j) dst[off[pass.Digit(src[j])]++] = src[j];
    std::swap(src, dst);
  }
  // An odd number of scatters leaves the result in the scratch buffer:
  // adopt it, and the input's buffer is the one freed.
  if (src != v->data()) v->swap(scratch);
}

AccessPath PlanAccess(bool bind_s, bool bind_p, bool bind_o) {
  // Each order's prefix covers the bound set exactly when the bound
  // columns are a prefix of its key; every single column and every pair
  // is some order's prefix.
  if (bind_s && bind_p) {
    return {IndexOrder::kSPO, bind_o ? 3 : 2};
  }
  if (bind_p && bind_o) return {IndexOrder::kPOS, 2};
  if (bind_o && bind_s) return {IndexOrder::kOSP, 2};
  if (bind_s) return {IndexOrder::kSPO, 1};
  if (bind_p) return {IndexOrder::kPOS, 1};
  if (bind_o) return {IndexOrder::kOSP, 1};
  return {IndexOrder::kSPO, 0};
}

namespace {

// a ∪ b for two runs sorted and duplicate-free in `order`.  a's
// stretches between b's rows are copied whole, so merging a delta into
// a body costs little more than one copy of the body.
std::vector<Triple> MergeRuns(const std::vector<Triple>& a,
                              const std::vector<Triple>& b, IndexOrder order) {
  auto less = [order](const Triple& x, const Triple& y) {
    return IndexLess(order, x, y);
  };
  std::vector<Triple> out;
  out.reserve(a.size() + b.size());
  const Triple* lo = a.data();
  const Triple* end = lo + a.size();
  for (const Triple& t : b) {
    const Triple* hi =
        Gallop(lo, end, [&](const Triple& x) { return less(x, t); });
    out.insert(out.end(), lo, hi);
    lo = hi;
    if (hi == end || less(t, *hi)) out.push_back(t);
  }
  out.insert(out.end(), lo, end);
  return out;
}

// The rows of `rows` not in `set`, both sorted and duplicate-free in
// SPO order.
std::vector<Triple> Minus(const std::vector<Triple>& rows,
                          const std::vector<Triple>& set) {
  std::vector<Triple> out;
  out.reserve(rows.size());
  const Triple* lo = set.data();
  const Triple* end = lo + set.size();
  for (const Triple& t : rows) {
    lo = Gallop(lo, end, [&t](const Triple& x) { return x < t; });
    if (lo == end || *lo != t) out.push_back(t);
  }
  return out;
}

const std::shared_ptr<TripleBody>& EmptyBody() {
  // Every order is built, so no lazy build ever writes to it.
  static const std::shared_ptr<TripleBody> empty = [] {
    auto b = std::make_shared<TripleBody>();
    for (bool& built : b->built) built = true;
    return b;
  }();
  return empty;
}

}  // namespace

size_t TripleBody::size() const {
  if (source != nullptr) return source->num_triples();
  for (int i = 0; i < 3; ++i) {
    if (built[i]) return perm[i].size();
  }
  return 0;
}

const std::vector<Triple>& TripleBody::Permutation(IndexOrder order) {
  const int i = static_cast<int>(order);
  if (built[i]) return perm[i];
  if (source != nullptr) {
    // A failed decode leaves the order empty and marks it built: the
    // sticky diagnostic on the source is the truth, and re-decoding a
    // corrupt segment on every probe would only repeat the failure.
    (void)source->Decode(order, &perm[i]);
    built[i] = true;
    return perm[i];
  }
  const bool metrics = MetricsEnabled();
  const uint64_t t0 = metrics ? MonotonicNanos() : 0;
  // The order after this one leads with this order's last two key
  // columns (POS for SPO, OSP for POS, SPO for OSP), so SortTriples runs
  // only the leading column's passes.  The order before it leads with
  // this order's last key column, which saves that column's passes.
  const int next = (i + 1) % 3;
  const int from = built[next] ? next : (i + 2) % 3;
  assert(built[from]);
  perm[i] = perm[from];
  SortTriples(&perm[i], order);
  built[i] = true;
  if (metrics) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("storage.perm_builds")->Increment();
    reg.GetHistogram("storage.perm_build_ns")->Observe(MonotonicNanos() - t0);
  }
  return perm[i];
}

TripleBlock::TripleBlock() : body(EmptyBody()) {}

const std::vector<Triple>& TripleBlock::View(IndexOrder order) {
  const std::vector<Triple>& b = body->Permutation(order);
  if (!HasDelta()) return b;
  const int i = static_cast<int>(order);
  if (!merged_built[i]) {
    merged[i] = MergeRuns(b, delta[i], order);
    merged_built[i] = true;
  }
  return merged[i];
}

namespace {

// One pass over a permutation whose leading column is `col`: counts
// distinct values and collects the kAggTopK most frequent ones.  The
// run-length walk is the aggregated-projection scan — the permutation
// is already grouped by `col`, so each value's frequency is one run.
void AggregateColumn(const std::vector<Triple>& sorted_by_col, int col,
                     size_t* distinct, std::vector<ValueFreq>* topk) {
  topk->clear();
  auto flush = [&](ObjId value, size_t run) {
    // Keep the list sorted (count desc, value asc) and capped: a linear
    // insertion into <= kAggTopK entries per distinct value.  Values
    // come ascending, so a full list only admits a strictly larger run.
    if (topk->size() == TripleSetStats::kAggTopK &&
        run <= topk->back().count) {
      return;
    }
    ValueFreq vf{value, static_cast<uint64_t>(run)};
    auto pos = std::lower_bound(
        topk->begin(), topk->end(), vf, [](const ValueFreq& a, const ValueFreq& b) {
          return a.count != b.count ? a.count > b.count : a.value < b.value;
        });
    topk->insert(pos, vf);
    if (topk->size() > TripleSetStats::kAggTopK) topk->pop_back();
  };
  size_t n = 0;
  size_t run = 0;
  ObjId value = 0;
  for (const Triple& t : sorted_by_col) {
    const ObjId v = Field(t, col);
    if (run > 0 && v != value) {
      flush(value, run);
      run = 0;
    }
    if (run == 0) {
      ++n;
      value = v;
    }
    ++run;
  }
  if (run > 0) flush(value, run);
  *distinct = n;
}

// Adds `rows` (sorted in every order) to `stats`, the stats of a set
// S = body ∪ `prior` that the rows are disjoint from.  A value's count
// in S is its range in `prior` plus, where the body's permutation led by
// its column is built, its range there.  The new heavy hitters are
// among the old ones and the rows' values: any other value keeps its
// count, and the old kAggTopK, whose counts only grew, still rank above
// it.  So a column stays exact when its body permutation is built and
// its heavy-hitter list is complete; otherwise an unseen value counts
// as new (distinct becomes an upper bound) and only the listed heavy
// hitters' counts move.  Returns whether every column stayed exact.
bool AddRows(const std::vector<Triple> (&rows)[3], const TripleBody& body,
             const std::vector<Triple> (&prior)[3], TripleSetStats* stats) {
  stats->num_triples += rows[0].size();
  bool exact = true;
  for (int c = 0; c < 3; ++c) {
    const IndexOrder order = static_cast<IndexOrder>(c);  // led by c
    const bool probe_body = body.Built(order);
    std::vector<ValueFreq>& top = stats->topk[c];
    const size_t heavy = top.size();
    const bool complete =
        heavy == std::min(TripleSetStats::kAggTopK, stats->distinct[c]);
    exact = exact && probe_body && complete;
    const std::vector<Triple>& run = rows[c];
    for (size_t i = 0; i < run.size();) {
      const ObjId v = run[i][c];
      size_t j = i + 1;
      while (j < run.size() && run[j][c] == v) ++j;
      size_t before = EqualRange(prior[c], order, v).size();
      if (probe_body) before += EqualRange(body.perm[c], order, v).size();
      if (before == 0) ++stats->distinct[c];
      auto hit = std::find_if(top.begin(), top.begin() + heavy,
                              [v](const ValueFreq& f) { return f.value == v; });
      if (hit != top.begin() + heavy) {
        hit->count += j - i;
      } else if (probe_body && complete) {
        top.push_back({v, static_cast<uint64_t>(before + j - i)});
      }
      i = j;
    }
    std::sort(top.begin(), top.end(), [](const ValueFreq& a, const ValueFreq& b) {
      return a.count != b.count ? a.count > b.count : a.value < b.value;
    });
    if (top.size() > TripleSetStats::kAggTopK) {
      top.resize(TripleSetStats::kAggTopK);
    }
  }
  return exact;
}

// `rows` (SPO-sorted) in every order.
void SortEveryOrder(std::vector<Triple> rows, std::vector<Triple> (&out)[3]) {
  out[1] = rows;
  SortTriples(&out[1], IndexOrder::kPOS);
  out[2] = rows;
  SortTriples(&out[2], IndexOrder::kOSP);
  out[0] = std::move(rows);
}

}  // namespace

TripleBlock::TripleBlock(std::vector<Triple> rows, IndexOrder order)
    : body(std::make_shared<TripleBody>()) {
  body->perm[static_cast<int>(order)] = std::move(rows);
  body->built[static_cast<int>(order)] = true;
}

const TripleSetStats& TripleBlock::Stats() {
  if (stats_built && stats_exact) return stats;
  stats.num_triples = size();
  for (int c = 0; c < 3; ++c) {
    AggregateColumn(View(static_cast<IndexOrder>(c)), c, &stats.distinct[c],
                    &stats.topk[c]);
  }
  stats_built = stats_exact = true;
  return stats;
}

std::shared_ptr<TripleBlock> TripleBlock::Write(
    const std::shared_ptr<TripleBlock>& old, std::vector<Triple> batch) {
  if (batch.empty()) return old;
  // The common case, an operator's whole output: adopt the batch.
  if (old->size() == 0) {
    return std::make_shared<TripleBlock>(std::move(batch), IndexOrder::kSPO);
  }
  // Rows already in the delta are no news; the rest may still be in the
  // body.
  if (old->HasDelta()) batch = Minus(batch, old->delta[0]);
  TripleBody& body = *old->body;
  const std::vector<Triple>& body_spo = body.Permutation(IndexOrder::kSPO);
  auto next = std::make_shared<TripleBlock>();
  std::vector<Triple> added[3];
  const size_t delta_bound = old->delta[0].size() + batch.size();
  if (delta_bound * kCompactDivisor <= body.size()) {
    SortEveryOrder(Minus(batch, body_spo), added);
    if (added[0].empty()) return old;
    next->body = old->body;
    for (int i = 0; i < 3; ++i) {
      next->delta[i] =
          MergeRuns(old->delta[i], added[i], static_cast<IndexOrder>(i));
    }
    if (old->stats_built) {
      next->stats = old->stats;
      next->stats_built = true;
      next->stats_exact =
          AddRows(added, body, old->delta, &next->stats) && old->stats_exact;
    }
    return next;
  }
  // Compaction: body ∪ delta ∪ batch, one permutation at a time — SPO,
  // and each other order the old body had built — by linear merges.
  auto compacted = std::make_shared<TripleBody>();
  for (int i = 0; i < 3; ++i) {
    const IndexOrder order = static_cast<IndexOrder>(i);
    if (!body.Built(order)) continue;
    std::vector<Triple> rows = batch;
    SortTriples(&rows, order);
    compacted->perm[i] =
        MergeRuns(body.perm[i], MergeRuns(old->delta[i], rows, order), order);
    compacted->built[i] = true;
  }
  if (compacted->perm[0].size() == old->size()) return old;  // nothing new
  next->body = std::move(compacted);
  if (old->stats_built) {
    next->stats = old->stats;
    next->stats_built = true;
    next->stats_exact = true;
    // Every built order recomputes its column (heavy hitters included);
    // the others add the new rows.
    for (bool b : next->body->built) next->stats_exact = next->stats_exact && b;
    if (!next->stats_exact) {
      SortEveryOrder(Minus(batch, body_spo), added);
      AddRows(added, body, old->delta, &next->stats);
    }
    next->stats.num_triples = next->size();
    for (int c = 0; c < 3; ++c) {
      if (!next->body->built[c]) continue;
      AggregateColumn(next->body->perm[c], c, &next->stats.distinct[c],
                      &next->stats.topk[c]);
    }
  }
  return next;
}

double EstimateEquiJoinRows(const TripleSetStats& l, int lcol,
                            const TripleSetStats& r, int rcol) {
  const double nl = static_cast<double>(l.num_triples);
  const double nr = static_cast<double>(r.num_triples);
  if (nl == 0 || nr == 0) return 0.0;
  const double dl = static_cast<double>(l.distinct[lcol]);
  const double dr = static_cast<double>(r.distinct[rcol]);
  if (!l.HasAgg(lcol) || !r.HasAgg(rcol)) {
    // Independence heuristic: uniform frequencies, smaller domain
    // contained in the larger.
    const double d = std::max(dl, dr);
    return d == 0 ? 0.0 : nl * nr / d;
  }
  const std::vector<ValueFreq>& hl = l.topk[lcol];
  const std::vector<ValueFreq>& hr = r.topk[rcol];
  double head_l = 0, head_r = 0;
  for (const ValueFreq& v : hl) head_l += static_cast<double>(v.count);
  for (const ValueFreq& v : hr) head_r += static_cast<double>(v.count);
  const double tail_l = nl - head_l;
  const double tail_r = nr - head_r;
  const double tdl = std::max(0.0, dl - static_cast<double>(hl.size()));
  const double tdr = std::max(0.0, dr - static_cast<double>(hr.size()));
  // Average tail frequency (0 when the head covers the whole column).
  const double avg_tl = tdl > 0 ? tail_l / tdl : 0.0;
  const double avg_tr = tdr > 0 ? tail_r / tdr : 0.0;

  // Match the two heads by value: sort (value, position) keys of each
  // and walk them together.  match[i] is the first position in hr with
  // hl[i]'s value (or kNone); shared[j] says hr[j]'s value is in hl.
  constexpr uint32_t kNone = UINT32_MAX;
  const size_t nhl = hl.size(), nhr = hr.size();
  // Stack buffers for the usual kAggTopK-capped lists; heap otherwise.
  uint64_t small_keys[2 * TripleSetStats::kAggTopK];
  uint32_t small_marks[2 * TripleSetStats::kAggTopK];
  std::vector<uint64_t> large_keys;
  std::vector<uint32_t> large_marks;
  uint64_t* kl = small_keys;
  uint32_t* match = small_marks;
  if (nhl + nhr > 2 * TripleSetStats::kAggTopK) {
    large_keys.resize(nhl + nhr);
    large_marks.resize(nhl + nhr);
    kl = large_keys.data();
    match = large_marks.data();
  }
  uint64_t* kr = kl + nhl;
  uint32_t* shared = match + nhl;
  for (size_t i = 0; i < nhl; ++i) {
    kl[i] = static_cast<uint64_t>(hl[i].value) << 32 | i;
  }
  for (size_t j = 0; j < nhr; ++j) {
    kr[j] = static_cast<uint64_t>(hr[j].value) << 32 | j;
  }
  std::sort(kl, kl + nhl);
  std::sort(kr, kr + nhr);
  std::fill(match, match + nhl, kNone);
  std::fill(shared, shared + nhr, 0);
  for (size_t i = 0, j = 0; i < nhl && j < nhr;) {
    const uint64_t vl = kl[i] >> 32, vr = kr[j] >> 32;
    if (vl < vr) {
      ++i;
    } else if (vr < vl) {
      ++j;
    } else {
      // kr[j] is the value's first position in hr.
      const auto first = static_cast<uint32_t>(kr[j]);
      for (; i < nhl && kl[i] >> 32 == vl; ++i) {
        match[static_cast<uint32_t>(kl[i])] = first;
      }
      for (; j < nhr && kr[j] >> 32 == vr; ++j) {
        shared[static_cast<uint32_t>(kr[j])] = 1;
      }
    }
  }

  double rows = 0;
  // Head x head: exact frequency products over the shared values.
  // Head-only values (present in one head, absent from the other's) are
  // matched against the other side's tail average — the other side
  // either lacks the value or carries it at tail frequency.  Summed in
  // list order, so the estimate does not depend on the matching method.
  for (size_t i = 0; i < nhl; ++i) {
    rows += static_cast<double>(hl[i].count) *
            (match[i] != kNone ? static_cast<double>(hr[match[i]].count)
                               : avg_tr);
  }
  for (size_t j = 0; j < nhr; ++j) {
    if (!shared[j]) rows += static_cast<double>(hr[j].count) * avg_tl;
  }
  // Tail x tail under the containment assumption: the smaller tail
  // domain is contained in the larger, so each of its values matches.
  const double td = std::max(tdl, tdr);
  if (td > 0) rows += tail_l * tail_r / td;
  return rows;
}

TripleRange EqualRange(const std::vector<Triple>& sorted, IndexOrder order,
                       ObjId v) {
  const int lead = Cols(order)[0];
  auto lo = std::lower_bound(
      sorted.begin(), sorted.end(), v,
      [lead](const Triple& t, ObjId x) { return t[lead] < x; });
  auto hi = std::upper_bound(
      lo, sorted.end(), v,
      [lead](ObjId x, const Triple& t) { return x < t[lead]; });
  return {sorted.data() + (lo - sorted.begin()),
          sorted.data() + (hi - sorted.begin())};
}

TripleRange EqualRangePair(const std::vector<Triple>& sorted, IndexOrder order,
                           ObjId lead, ObjId second) {
  const int* c = Cols(order);
  const int c0 = c[0], c1 = c[1];
  auto key_less = [c0, c1](const Triple& t, std::pair<ObjId, ObjId> k) {
    return t[c0] != k.first ? t[c0] < k.first : t[c1] < k.second;
  };
  auto key_greater = [c0, c1](std::pair<ObjId, ObjId> k, const Triple& t) {
    return k.first != t[c0] ? k.first < t[c0] : k.second < t[c1];
  };
  std::pair<ObjId, ObjId> key{lead, second};
  auto lo = std::lower_bound(sorted.begin(), sorted.end(), key, key_less);
  auto hi = std::upper_bound(lo, sorted.end(), key, key_greater);
  return {sorted.data() + (lo - sorted.begin()),
          sorted.data() + (hi - sorted.begin())};
}

}  // namespace trial
