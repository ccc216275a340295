#include "storage/triple_index.h"

#include <algorithm>
#include <cstring>

#include "storage/segment/segment_source.h"

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

const std::vector<Triple>& TripleIndexCache::Permutation(
    const std::vector<Triple>& spo, IndexOrder order) {
  if (order == IndexOrder::kPOS) {
    if (!pos_built) {
      pos = spo;  // already sorted by s, POS's last key column
      SortTriples(&pos, IndexOrder::kPOS);
      pos_built = true;
    }
    return pos;
  }
  if (!osp_built) {
    // Built from POS when it is ready: sorted by p, OSP's last key
    // column, so only the s and o passes run.
    osp = pos_built ? pos : spo;
    SortTriples(&osp, IndexOrder::kOSP);
    osp_built = true;
  }
  return osp;
}

const std::vector<Triple>& TripleIndexCache::SegmentPermutation(
    const TripleSegmentSource& src, IndexOrder order) {
  std::vector<Triple>* slot = nullptr;
  bool* built = nullptr;
  switch (order) {
    case IndexOrder::kSPO: slot = &base; built = &base_built; break;
    case IndexOrder::kPOS: slot = &pos; built = &pos_built; break;
    case IndexOrder::kOSP: slot = &osp; built = &osp_built; break;
  }
  if (!*built) {
    // A failed decode leaves the slot empty and marks it built: the
    // sticky diagnostic on the source is the truth, and re-decoding a
    // corrupt segment on every probe would only repeat the failure.
    (void)src.Decode(order, slot);
    *built = true;
  }
  return *slot;
}

namespace {

// One pass over a permutation whose leading column is `col`: counts
// distinct values and collects the kAggTopK most frequent ones.  The
// run-length walk is the aggregated-projection scan — the permutation
// is already grouped by `col`, so each value's frequency is one run.
void AggregateColumn(const std::vector<Triple>& sorted_by_col, int col,
                     size_t* distinct, std::vector<ValueFreq>* topk) {
  topk->clear();
  size_t n = 0;
  size_t run = 0;
  auto flush = [&](ObjId value) {
    // Keep the list sorted (count desc, value asc) and capped: a linear
    // insertion into <= kAggTopK entries per distinct value.
    ValueFreq vf{value, static_cast<uint64_t>(run)};
    auto pos = std::lower_bound(
        topk->begin(), topk->end(), vf, [](const ValueFreq& a, const ValueFreq& b) {
          return a.count != b.count ? a.count > b.count : a.value < b.value;
        });
    if (pos != topk->end() || topk->size() < TripleSetStats::kAggTopK) {
      topk->insert(pos, vf);
      if (topk->size() > TripleSetStats::kAggTopK) topk->pop_back();
    }
  };
  for (size_t i = 0; i < sorted_by_col.size(); ++i) {
    if (i > 0 && sorted_by_col[i][col] != sorted_by_col[i - 1][col]) {
      flush(sorted_by_col[i - 1][col]);
      run = 0;
    }
    if (run == 0) ++n;
    ++run;
  }
  if (run > 0) flush(sorted_by_col.back()[col]);
  *distinct = n;
}

}  // namespace

const TripleSetStats& TripleIndexCache::Stats(const std::vector<Triple>& spo) {
  if (stats_built) return stats;
  stats.num_triples = spo.size();
  AggregateColumn(spo, 0, &stats.distinct[0], &stats.topk[0]);
  AggregateColumn(Permutation(spo, IndexOrder::kPOS), 1, &stats.distinct[1],
                  &stats.topk[1]);
  AggregateColumn(Permutation(spo, IndexOrder::kOSP), 2, &stats.distinct[2],
                  &stats.topk[2]);
  stats_built = true;
  return stats;
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

  double rows = 0;
  // Head x head: exact frequency products over the shared values.
  // Head-only values (present in one head, absent from the other's) are
  // matched against the other side's tail average — the other side
  // either lacks the value or carries it at tail frequency.
  for (const ValueFreq& a : hl) {
    const ValueFreq* b = nullptr;
    for (const ValueFreq& c : hr) {
      if (c.value == a.value) { b = &c; break; }
    }
    rows += static_cast<double>(a.count) *
            (b != nullptr ? static_cast<double>(b->count) : avg_tr);
  }
  for (const ValueFreq& b : hr) {
    bool shared = false;
    for (const ValueFreq& a : hl) {
      if (a.value == b.value) { shared = true; break; }
    }
    if (!shared) rows += static_cast<double>(b.count) * avg_tl;
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
