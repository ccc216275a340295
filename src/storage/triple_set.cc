#include "storage/triple_set.h"

#include <algorithm>
#include <cassert>

#include "util/parallel.h"

namespace trial {

TripleSet::TripleSet(std::vector<Triple> triples)
    : staged_(std::move(triples)),
      cache_(std::make_shared<TripleIndexCache>()) {}

TripleSet TripleSet::FromSnapshot(
    std::shared_ptr<const TripleSegmentSource> source) {
  TripleSet r;
  // The writer persisted exact stats; pre-seeding them means planning
  // and EXPLAIN never trigger a decode.
  r.cache_->stats = source->stats();
  r.cache_->stats_built = true;
  r.source_ = std::move(source);
  return r;
}

Status TripleSet::SnapshotHealth() const {
  if (!decode_error_.ok()) return decode_error_;
  return source_ != nullptr ? source_->status() : Status::OK();
}

void TripleSet::Promote() const {
  // Copy-on-write: this set is about to diverge from the snapshot.
  // Materialize SPO (reusing the shared cache's decode when present),
  // then drop the source; other copies keep reading the snapshot.
  if (cache_ != nullptr && cache_->base_built) {
    triples_ = cache_->base;
  } else {
    (void)source_->Decode(IndexOrder::kSPO, &triples_);
  }
  if (decode_error_.ok()) decode_error_ = source_->status();
  source_.reset();
}

void TripleSet::Normalize() const {
  if (staged_.empty()) return;
  if (source_ != nullptr) Promote();
  // Sort only the staged batch and merge it into the already-sorted
  // body: O(n + k) per batch instead of re-sorting all n + k.
  SortTriples(&staged_, IndexOrder::kSPO);
  staged_.erase(std::unique(staged_.begin(), staged_.end()), staged_.end());
  if (triples_.empty()) {
    // The common case, an operator's whole output: adopt the batch's
    // buffer instead of copying it and keeping both.
    triples_.swap(staged_);
  } else {
    size_t mid = triples_.size();
    triples_.insert(triples_.end(), staged_.begin(), staged_.end());
    std::inplace_merge(triples_.begin(), triples_.begin() + mid,
                       triples_.end());
    triples_.erase(std::unique(triples_.begin(), triples_.end()),
                   triples_.end());
  }
  staged_.clear();
  // The contents changed: detach onto a fresh cache cell rather than
  // clearing the shared one, which other copies may still be using.
  cache_ = std::make_shared<TripleIndexCache>();
}

bool TripleSet::Contains(const Triple& t) const {
  const std::vector<Triple>& v = OrderVector(IndexOrder::kSPO);
  return std::binary_search(v.begin(), v.end(), t);
}

const std::vector<Triple>& TripleSet::OrderVector(IndexOrder order) const {
  Normalize();
  if (cache_ == nullptr) cache_ = std::make_shared<TripleIndexCache>();
  if (source_ != nullptr) return cache_->SegmentPermutation(*source_, order);
  if (order == IndexOrder::kSPO) return triples_;
  return cache_->Permutation(triples_, order);
}

TripleRange TripleSet::Lookup(int column, ObjId v) const {
  AccessPath path = PlanAccess(column == 0, column == 1, column == 2);
  return EqualRange(OrderVector(path.order), path.order, v);
}

TripleRange TripleSet::LookupPair(int col_a, ObjId va, int col_b,
                                  ObjId vb) const {
  if (col_a == col_b) {
    return va == vb ? Lookup(col_a, va) : TripleRange{};
  }
  bool bind[3] = {false, false, false};
  ObjId val[3] = {0, 0, 0};
  bind[col_a] = true;
  val[col_a] = va;
  bind[col_b] = true;
  val[col_b] = vb;
  AccessPath path = PlanAccess(bind[0], bind[1], bind[2]);
  return EqualRangePair(OrderVector(path.order), path.order,
                        val[IndexColumn(path.order, 0)],
                        val[IndexColumn(path.order, 1)]);
}

bool TripleSet::IndexAmortized(IndexOrder order) const {
  if (order == IndexOrder::kSPO) return true;
  Normalize();  // pending inserts would detach the cell on first read
  // Snapshot permutations were sorted at save time: "building" one is a
  // linear decode, never an O(n log n) sort, so it always pays off.
  if (source_ != nullptr) return true;
  if (cache_ == nullptr) return false;
  return cache_->Built(order) || cache_.use_count() > 1;
}

TripleRange TripleSet::Scan(IndexOrder order) const {
  const std::vector<Triple>& v = OrderVector(order);
  return {v.data(), v.data() + v.size()};
}

TripleRange TripleSet::Scan(IndexOrder order, size_t part,
                            size_t num_parts) const {
  const std::vector<Triple>& v = OrderVector(order);
  if (num_parts == 0) num_parts = 1;
  if (part >= num_parts) return TripleRange{};
  size_t n = v.size();
  return {v.data() + n * part / num_parts,
          v.data() + n * (part + 1) / num_parts};
}

std::vector<TripleRange> TripleSet::Partitions(IndexOrder order,
                                               size_t num_parts) const {
  const std::vector<Triple>& v = OrderVector(order);
  std::vector<ChunkRange> chunks = SplitEven(v.size(), num_parts);
  std::vector<TripleRange> out;
  out.reserve(chunks.size());
  for (const ChunkRange& c : chunks) {
    out.push_back({v.data() + c.begin, v.data() + c.end});
  }
  return out;
}

const TripleSetStats& TripleSet::Stats() const {
  Normalize();
  if (cache_ == nullptr) cache_ = std::make_shared<TripleIndexCache>();
  if (cache_->stats_built) return cache_->stats;  // snapshot pre-seeds these
  return cache_->Stats(OrderVector(IndexOrder::kSPO));
}

TripleSet TripleSet::FromSortedUnique(std::vector<Triple> triples) {
  assert(std::is_sorted(triples.begin(), triples.end()));
  assert(std::adjacent_find(triples.begin(), triples.end()) ==
         triples.end());
  TripleSet r;
  r.triples_ = std::move(triples);
  return r;
}

TripleSet TripleSet::Union(const TripleSet& a, const TripleSet& b) {
  std::vector<Triple> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  TripleSet r;
  r.triples_ = std::move(out);
  return r;
}

TripleSet TripleSet::Difference(const TripleSet& a, const TripleSet& b) {
  std::vector<Triple> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  TripleSet r;
  r.triples_ = std::move(out);
  return r;
}

TripleSet TripleSet::Intersection(const TripleSet& a, const TripleSet& b) {
  std::vector<Triple> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  TripleSet r;
  r.triples_ = std::move(out);
  return r;
}

}  // namespace trial
