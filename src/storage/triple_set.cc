#include "storage/triple_set.h"

#include <algorithm>
#include <cassert>

namespace trial {

TripleSet::TripleSet(std::vector<Triple> triples)
    : staged_(std::move(triples)), block_(std::make_shared<TripleBlock>()) {}

std::vector<Triple> TripleSet::TakeRows() && {
  if (block_ != nullptr && block_->size() == 0) return std::move(staged_);
  return triples();
}

TripleSet TripleSet::FromSnapshot(
    std::shared_ptr<const TripleSegmentSource> source) {
  TripleSet r;
  // The writer persisted exact stats; pre-seeding them means planning
  // and EXPLAIN never trigger a decode.
  r.block_->stats = source->stats();
  r.block_->stats_built = true;
  r.block_->stats_exact = true;
  auto body = std::make_shared<TripleBody>();
  body->source = std::move(source);
  r.block_->body = std::move(body);
  return r;
}

TripleSet TripleSet::FromBody(std::vector<Triple> rows, IndexOrder order) {
  return TripleSet(std::make_shared<TripleBlock>(std::move(rows), order));
}

Status TripleSet::SnapshotHealth() const {
  if (!decode_error_.ok()) return decode_error_;
  const TripleSegmentSource* source = snapshot_source();
  return source != nullptr ? source->status() : Status::OK();
}

void TripleSet::Normalize() const {
  if (block_ == nullptr) block_ = std::make_shared<TripleBlock>();
  if (staged_.empty()) return;
  std::vector<Triple> batch;
  batch.swap(staged_);
  SortTriples(&batch, IndexOrder::kSPO);
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  std::shared_ptr<TripleBlock> next =
      TripleBlock::Write(block_, std::move(batch));
  const TripleSegmentSource* source = block_->body->source.get();
  if (source != nullptr && next->body != block_->body &&
      decode_error_.ok()) {
    decode_error_ = source->status();
  }
  block_ = std::move(next);
}

template <typename Probe>
TripleRange TripleSet::Find(IndexOrder order, Probe probe) const {
  TripleBlock& b = Block();
  if (!b.HasDelta() || b.Ready(order)) return probe(b.View(order));
  // Body and delta are disjoint: when only one holds matches, its range
  // is the answer and the merged view is not needed.
  TripleRange in_delta = probe(b.delta[static_cast<int>(order)]);
  if (in_delta.empty()) return probe(b.body->Permutation(order));
  if (probe(b.body->Permutation(order)).empty()) return in_delta;
  return probe(b.View(order));
}

bool TripleSet::Contains(const Triple& t) const {
  TripleBlock& b = Block();
  if (!b.HasDelta() || b.Ready(IndexOrder::kSPO)) {
    const std::vector<Triple>& v = b.View(IndexOrder::kSPO);
    return std::binary_search(v.begin(), v.end(), t);
  }
  const std::vector<Triple>& body = b.body->Permutation(IndexOrder::kSPO);
  return std::binary_search(b.delta[0].begin(), b.delta[0].end(), t) ||
         std::binary_search(body.begin(), body.end(), t);
}

TripleRange TripleSet::Lookup(int column, ObjId v) const {
  AccessPath path = PlanAccess(column == 0, column == 1, column == 2);
  return Find(path.order, [&](const std::vector<Triple>& run) {
    return EqualRange(run, path.order, v);
  });
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
  const ObjId lead = val[IndexColumn(path.order, 0)];
  const ObjId second = val[IndexColumn(path.order, 1)];
  return Find(path.order, [&](const std::vector<Triple>& run) {
    return EqualRangePair(run, path.order, lead, second);
  });
}

bool TripleSet::IndexAmortized(IndexOrder order) const {
  if (order == IndexOrder::kSPO) return true;
  const TripleBlock& b = Block();
  // Snapshot permutations were sorted at save time: "building" one is a
  // linear decode, never an O(n log n) sort, so it always pays off.
  if (b.body->source != nullptr) return true;
  return b.Ready(order) || b.body->Built(order) || block_.use_count() > 1 ||
         b.body.use_count() > 1;
}

TripleRange TripleSet::Scan(IndexOrder order) const {
  const std::vector<Triple>& v = Block().View(order);
  return {v.data(), v.data() + v.size()};
}

IndexOrder TripleSet::ReadyOrder() const {
  const TripleBlock& b = Block();
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kOSP, IndexOrder::kPOS}) {
    if (b.Ready(order)) return order;
  }
  return IndexOrder::kSPO;
}

const TripleSetStats& TripleSet::Stats() const { return Block().Stats(); }

TripleSet TripleSet::FromSortedUnique(std::vector<Triple> triples,
                                      IndexOrder order) {
  assert(std::is_sorted(triples.begin(), triples.end(),
                        [order](const Triple& a, const Triple& b) {
                          return IndexLess(order, a, b);
                        }));
  assert(std::adjacent_find(triples.begin(), triples.end()) ==
         triples.end());
  return FromBody(std::move(triples), order);
}

TripleSet TripleSet::Union(const TripleSet& a, const TripleSet& b) {
  std::vector<Triple> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return FromBody(std::move(out));
}

TripleSet TripleSet::Difference(const TripleSet& a, const TripleSet& b) {
  std::vector<Triple> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return FromBody(std::move(out));
}

}  // namespace trial
