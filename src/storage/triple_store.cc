#include "storage/triple_store.h"

#include <cassert>

namespace trial {
namespace {

bool IsNegativeInt(const DataValue& v) { return v.is_int() && v.AsInt() < 0; }

}  // namespace

ObjId TripleStore::InternObject(std::string_view name) {
  ++epoch_;
  ObjId id = objects_.Intern(name);
  if (id >= rho_.size()) rho_.resize(id + 1);
  return id;
}

std::vector<ObjId> TripleStore::MergeDictionary(const StringInterner& shard) {
  ++epoch_;
  std::vector<ObjId> remap = objects_.MergeFrom(shard);
  if (objects_.size() > rho_.size()) rho_.resize(objects_.size());
  return remap;
}

void TripleStore::AdoptDictionary(StringInterner dict) {
  assert(objects_.empty() && "AdoptDictionary requires a store without objects");
  ++epoch_;
  objects_ = std::move(dict);
  if (objects_.size() > rho_.size()) rho_.resize(objects_.size());
}

void TripleStore::SetValue(ObjId id, DataValue v) {
  ++epoch_;
  if (id >= rho_.size()) rho_.resize(id + 1);
  negative_ints_ -= IsNegativeInt(rho_[id]);
  negative_ints_ += IsNegativeInt(v);
  rho_[id] = std::move(v);
}

const DataValue& TripleStore::Value(ObjId id) const {
  static const DataValue kNull;
  return id < rho_.size() ? rho_[id] : kNull;
}

RelId TripleStore::AddRelation(std::string_view name) {
  auto it = rel_index_.find(std::string(name));
  if (it != rel_index_.end()) return it->second;
  ++epoch_;
  RelId id = static_cast<RelId>(relations_.size());
  rel_names_.emplace_back(name);
  rel_index_.emplace(rel_names_.back(), id);
  relations_.emplace_back();
  return id;
}

RelId TripleStore::AddSnapshotRelation(
    std::string_view name, std::shared_ptr<const TripleSegmentSource> source) {
  RelId id = AddRelation(name);
  ++epoch_;
  relations_[id] = TripleSet::FromSnapshot(std::move(source));
  return id;
}

Status TripleStore::SnapshotStatus() const {
  for (const TripleSet& r : relations_) {
    TRIAL_RETURN_IF_ERROR(r.SnapshotHealth());
  }
  return Status::OK();
}

const TripleSet* TripleStore::FindRelation(std::string_view name) const {
  auto it = rel_index_.find(std::string(name));
  return it == rel_index_.end() ? nullptr : &relations_[it->second];
}

TripleSet* TripleStore::MutableRelation(std::string_view name) {
  auto it = rel_index_.find(std::string(name));
  if (it == rel_index_.end()) return nullptr;
  ++epoch_;  // conservative: handing out mutable access may mutate
  return &relations_[it->second];
}

Triple TripleStore::Add(std::string_view rel, std::string_view s,
                        std::string_view p, std::string_view o) {
  ++epoch_;
  RelId r = AddRelation(rel);
  Triple t{InternObject(s), InternObject(p), InternObject(o)};
  relations_[r].Insert(t);
  return t;
}

size_t TripleStore::TotalTriples() const {
  size_t n = 0;
  for (const TripleSet& r : relations_) n += r.size();
  return n;
}

std::string TripleStore::TripleToString(const Triple& t) const {
  std::string out = "(";
  out += ObjectName(t.s);
  out += ", ";
  out += ObjectName(t.p);
  out += ", ";
  out += ObjectName(t.o);
  out += ")";
  return out;
}

std::string TripleStore::ToString(const TripleSet& set) const {
  std::string out;
  for (const Triple& t : set) {
    out += TripleToString(t);
    out += "\n";
  }
  return out;
}

}  // namespace trial
