#include "storage/segment/store_snapshot.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "storage/segment/segment_format.h"
#include "storage/segment/segment_io.h"
#include "storage/segment/segment_source.h"
#include "util/interner.h"
#include "util/metrics.h"

namespace trial {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- rho codec ---------------------------------------------------------
//
// Sparse: a count of non-null entries, then (id-delta, value) pairs in
// increasing id order.  Values are a tag (0 null, 1 int, 2 string,
// 3 tuple) followed by the payload; ints are zigzag-encoded, tuples
// recurse (nulls are legal inside tuples, hence tag 0).

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void EncodeValue(const DataValue& v, std::vector<uint8_t>* out) {
  if (v.is_null()) {
    AppendVarint(out, 0);
  } else if (v.is_int()) {
    AppendVarint(out, 1);
    AppendVarint(out, ZigzagEncode(v.AsInt()));
  } else if (v.is_string()) {
    const std::string& s = v.AsString();
    AppendVarint(out, 2);
    AppendVarint(out, s.size());
    out->insert(out->end(), s.begin(), s.end());
  } else {
    const DataTuple& t = v.AsTuple();
    AppendVarint(out, 3);
    AppendVarint(out, t.size());
    for (const DataValue& e : t) EncodeValue(e, out);
  }
}

// Nesting bound for decoded tuples: adversarial input must not be able
// to trade one byte per level for a stack frame.
constexpr int kMaxTupleDepth = 64;

Status DecodeValue(const uint8_t** p, const uint8_t* end,
                   const std::string& origin, int depth, DataValue* out) {
  auto corrupt = [&](const char* what) {
    return Status::InvalidArgument(origin + ": corrupt rho section (" +
                                   what + ")");
  };
  uint64_t tag;
  if (!ReadVarint(p, end, &tag)) return corrupt("stream ends early");
  switch (tag) {
    case 0:
      *out = DataValue::Null();
      return Status::OK();
    case 1: {
      uint64_t z;
      if (!ReadVarint(p, end, &z)) return corrupt("stream ends early");
      *out = DataValue::Int(ZigzagDecode(z));
      return Status::OK();
    }
    case 2: {
      uint64_t len;
      if (!ReadVarint(p, end, &len)) return corrupt("stream ends early");
      if (len > static_cast<uint64_t>(end - *p)) {
        return corrupt("string length past section end");
      }
      *out = DataValue::Str(
          std::string(reinterpret_cast<const char*>(*p), len));
      *p += len;
      return Status::OK();
    }
    case 3: {
      if (depth >= kMaxTupleDepth) return corrupt("tuple nesting too deep");
      uint64_t arity;
      if (!ReadVarint(p, end, &arity)) return corrupt("stream ends early");
      // One byte minimum per element; anything larger lies.
      if (arity > static_cast<uint64_t>(end - *p)) {
        return corrupt("tuple arity past section end");
      }
      DataTuple t;
      t.reserve(arity);
      for (uint64_t i = 0; i < arity; ++i) {
        DataValue e;
        TRIAL_RETURN_IF_ERROR(DecodeValue(p, end, origin, depth + 1, &e));
        t.push_back(std::move(e));
      }
      *out = DataValue::Tuple(std::move(t));
      return Status::OK();
    }
    default:
      return corrupt("unknown value tag");
  }
}

std::string Origin(const std::string& path) { return "snapshot " + path; }

constexpr IndexOrder kAllOrders[3] = {IndexOrder::kSPO, IndexOrder::kPOS,
                                      IndexOrder::kOSP};

}  // namespace

// ---- save --------------------------------------------------------------

Status SaveStoreSnapshot(const TripleStore& store, const std::string& path,
                         SaveSnapshotStats* stats,
                         const SaveSnapshotOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  SegmentWriter writer;

  // Dictionary: (n+1) offsets + concatenated bytes.
  size_t num_objects = store.NumObjects();
  std::vector<uint8_t> offsets((num_objects + 1) * sizeof(uint64_t));
  std::vector<uint8_t> dict;
  uint64_t off = 0;
  for (size_t i = 0; i < num_objects; ++i) {
    std::memcpy(offsets.data() + i * sizeof(uint64_t), &off, sizeof(off));
    std::string_view name = store.ObjectName(static_cast<ObjId>(i));
    dict.insert(dict.end(), name.begin(), name.end());
    off += name.size();
  }
  std::memcpy(offsets.data() + num_objects * sizeof(uint64_t), &off,
              sizeof(off));
  uint64_t dict_bytes = dict.size();
  writer.AddSection(kSegDictOffsets, kSegNoRelation, 0, std::move(offsets),
                    num_objects);
  writer.AddSection(kSegDictBytes, kSegNoRelation, 0, std::move(dict),
                    dict_bytes);

  // Relation directory: names + exact stats (built here if needed —
  // they are part of the format).
  std::vector<uint8_t> dir;
  AppendVarint(&dir, store.NumRelations());
  for (RelId r = 0; r < store.NumRelations(); ++r) {
    std::string_view name = store.RelationName(r);
    const TripleSetStats& st = store.RelationStats(r);
    AppendVarint(&dir, name.size());
    dir.insert(dir.end(), name.begin(), name.end());
    AppendVarint(&dir, st.num_triples);
    for (int c = 0; c < 3; ++c) AppendVarint(&dir, st.distinct[c]);
  }
  writer.AddSection(kSegRelationDir, kSegNoRelation, 0, std::move(dir),
                    store.NumRelations());

  // Aggregated projections: per relation, per column, the top-k
  // (value, frequency) pairs.  A separate additive section (not part of
  // the relation directory) so snapshots without it keep opening.
  if (options.write_aggregated_stats) {
    for (RelId r = 0; r < store.NumRelations(); ++r) {
      const TripleSetStats& st = store.RelationStats(r);
      std::vector<uint8_t> agg;
      uint64_t entries = 0;
      for (int c = 0; c < 3; ++c) {
        AppendVarint(&agg, st.topk[c].size());
        for (const ValueFreq& vf : st.topk[c]) {
          AppendVarint(&agg, vf.value);
          AppendVarint(&agg, vf.count);
          ++entries;
        }
      }
      writer.AddSection(kSegAggStats, r, 0, std::move(agg), entries);
    }
  }

  // Sparse rho.
  std::vector<uint8_t> rho;
  uint64_t num_values = 0;
  for (size_t id = 0; id < num_objects; ++id) {
    if (!store.Value(static_cast<ObjId>(id)).is_null()) ++num_values;
  }
  AppendVarint(&rho, num_values);
  uint64_t prev = 0;
  for (size_t id = 0; id < num_objects; ++id) {
    const DataValue& v = store.Value(static_cast<ObjId>(id));
    if (v.is_null()) continue;
    AppendVarint(&rho, id - prev);
    prev = id + 1;
    EncodeValue(v, &rho);
  }
  writer.AddSection(kSegRho, kSegNoRelation, 0, std::move(rho), num_values);

  // One compressed segment per (relation, permutation).
  for (RelId r = 0; r < store.NumRelations(); ++r) {
    const TripleSet& rel = store.Relation(r);
    for (IndexOrder order : kAllOrders) {
      TripleRange range = rel.Scan(order);
      std::vector<uint8_t> seg;
      EncodeTripleSegment(range, order, &seg);
      writer.AddSection(kSegTriples, r, static_cast<uint32_t>(order),
                        std::move(seg), range.size());
    }
  }

  // A snapshot-backed source store whose lazy decode failed would have
  // produced empty scans above — refuse to persist silent data loss.
  TRIAL_RETURN_IF_ERROR(store.SnapshotStatus());

  size_t sections = 4 + 3 * store.NumRelations() +
                    (options.write_aggregated_stats ? store.NumRelations() : 0);
  TRIAL_RETURN_IF_ERROR(writer.WriteFile(path));
  const bool metrics = MetricsEnabled();
  double seconds = SecondsSince(t0);
  size_t out_bytes = 0;
  if (stats != nullptr || metrics) {
    // Re-open cheaply for the authoritative size (header-declared).
    auto mapped = MappedFile::Map(path);
    if (mapped.ok()) out_bytes = mapped.value()->size();
  }
  if (stats != nullptr) {
    stats->sections = sections;
    stats->seconds = seconds;
    stats->bytes = out_bytes;
  }
  if (metrics) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("snapshot.saves")->Increment();
    reg.GetCounter("snapshot.save_bytes")->Add(out_bytes);
    reg.GetHistogram("snapshot.save_ns")
        ->Observe(static_cast<uint64_t>(seconds * 1e9));
  }
  return Status::OK();
}

// ---- open --------------------------------------------------------------

Result<TripleStore> OpenStoreSnapshot(const std::string& path,
                                      const OpenSnapshotOptions& options,
                                      OpenSnapshotStats* stats) {
  auto t0 = std::chrono::steady_clock::now();
  TRIAL_ASSIGN_OR_RETURN(SegmentReader reader, SegmentReader::Open(path));
  const std::string origin = Origin(path);
  auto missing = [&](const char* what) {
    return Status::InvalidArgument(origin + ": missing " + what +
                                   " section");
  };
  auto corrupt = [&](const std::string& what) {
    return Status::InvalidArgument(origin + ": " + what);
  };

  size_t di = reader.Find(kSegDictOffsets);
  size_t db = reader.Find(kSegDictBytes);
  size_t dr = reader.Find(kSegRelationDir);
  size_t ri = reader.Find(kSegRho);
  if (di == SegmentReader::kNotFound) return missing("dictionary offsets");
  if (db == SegmentReader::kNotFound) return missing("dictionary bytes");
  if (dr == SegmentReader::kNotFound) return missing("relation directory");
  if (ri == SegmentReader::kNotFound) return missing("rho");

  // Metadata sections are verified eagerly: after Open returns OK the
  // store's structure is trustworthy.  Bulk payloads (dictionary bytes,
  // triples) stay lazy unless the caller asked for the full check.
  TRIAL_RETURN_IF_ERROR(reader.VerifySection(di));
  TRIAL_RETURN_IF_ERROR(reader.VerifySection(dr));
  TRIAL_RETURN_IF_ERROR(reader.VerifySection(ri));
  if (options.verify_payload) TRIAL_RETURN_IF_ERROR(reader.VerifyAll());

  // Dictionary offsets: monotonic and spanning exactly the byte
  // section, so frozen Get(id) can slice without per-call checks.
  const SegmentTocEntry& de = reader.Section(di);
  size_t num_objects = de.count;
  if (de.bytes != (num_objects + 1) * sizeof(uint64_t)) {
    return corrupt("dictionary offsets section has wrong size");
  }
  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(reader.SectionData(di));
  if (offsets[0] != 0) return corrupt("dictionary offsets do not start at 0");
  for (size_t i = 1; i <= num_objects; ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return corrupt("dictionary offsets not monotonic");
    }
  }
  if (offsets[num_objects] != reader.Section(db).bytes) {
    return corrupt("dictionary offsets disagree with dictionary bytes size");
  }

  TripleStore store;
  FrozenStrings frozen;
  frozen.keepalive = reader.file();
  frozen.bytes = reinterpret_cast<const char*>(reader.SectionData(db));
  frozen.offsets = offsets;
  frozen.count = num_objects;
  StringInterner dict;
  dict.AdoptFrozen(std::move(frozen));
  store.AdoptDictionary(std::move(dict));

  // Relation directory -> one lazily-decoded source per relation.
  const uint8_t* p = reader.SectionData(dr);
  const uint8_t* pend = p + reader.Section(dr).bytes;
  uint64_t num_relations;
  if (!ReadVarint(&p, pend, &num_relations) ||
      num_relations != reader.Section(dr).count) {
    return corrupt("corrupt relation directory (count mismatch)");
  }
  uint64_t total_triples = 0;
  for (uint64_t r = 0; r < num_relations; ++r) {
    uint64_t name_len;
    if (!ReadVarint(&p, pend, &name_len) ||
        name_len > static_cast<uint64_t>(pend - p)) {
      return corrupt("corrupt relation directory (bad name)");
    }
    std::string name(reinterpret_cast<const char*>(p), name_len);
    p += name_len;
    TripleSetStats st;
    uint64_t v;
    if (!ReadVarint(&p, pend, &v)) {
      return corrupt("corrupt relation directory (truncated stats)");
    }
    st.num_triples = v;
    for (int c = 0; c < 3; ++c) {
      if (!ReadVarint(&p, pend, &v)) {
        return corrupt("corrupt relation directory (truncated stats)");
      }
      if (v > st.num_triples) {
        return corrupt("corrupt relation directory (distinct count " +
                       std::to_string(v) + " exceeds triple count)");
      }
      st.distinct[c] = v;
    }
    // Aggregated projections are additive: absent (old snapshot) means
    // empty top-k lists, and estimation falls back to the independence
    // heuristics.  Present sections are metadata-sized, so verify and
    // decode them eagerly like the directory itself.
    size_t ai = reader.Find(kSegAggStats, static_cast<uint32_t>(r));
    if (ai != SegmentReader::kNotFound) {
      TRIAL_RETURN_IF_ERROR(reader.VerifySection(ai));
      const uint8_t* a = reader.SectionData(ai);
      const uint8_t* aend = a + reader.Section(ai).bytes;
      uint64_t entries = 0;
      for (int c = 0; c < 3; ++c) {
        uint64_t k;
        if (!ReadVarint(&a, aend, &k) || k > st.distinct[c]) {
          return corrupt("corrupt aggregated stats for relation '" + name +
                         "'");
        }
        st.topk[c].reserve(k);
        for (uint64_t i = 0; i < k; ++i) {
          uint64_t value, count;
          if (!ReadVarint(&a, aend, &value) || !ReadVarint(&a, aend, &count) ||
              count > st.num_triples) {
            return corrupt("corrupt aggregated stats for relation '" + name +
                           "'");
          }
          st.topk[c].push_back(
              {static_cast<ObjId>(value), static_cast<uint64_t>(count)});
          ++entries;
        }
      }
      if (a != aend || entries != reader.Section(ai).count) {
        return corrupt("corrupt aggregated stats for relation '" + name + "'");
      }
    }
    TripleSegmentSource::PermSegment perms[3];
    for (IndexOrder order : kAllOrders) {
      size_t si = reader.Find(kSegTriples, static_cast<uint32_t>(r),
                              static_cast<uint32_t>(order));
      if (si == SegmentReader::kNotFound) {
        return corrupt("missing " + std::string(IndexOrderName(order)) +
                       " triple segment for relation '" + name + "'");
      }
      const SegmentTocEntry& te = reader.Section(si);
      if (te.count != st.num_triples) {
        return corrupt(std::string(IndexOrderName(order)) +
                       " segment of relation '" + name +
                       "' disagrees with the directory triple count");
      }
      perms[static_cast<int>(order)] = {reader.SectionData(si), te.bytes,
                                        te.checksum};
    }
    store.AddSnapshotRelation(
        name, std::make_shared<TripleSegmentSource>(
                  reader.file(), origin + " relation '" + name + "'", st,
                  perms));
    total_triples += st.num_triples;
  }
  if (p != pend) return corrupt("corrupt relation directory (trailing bytes)");

  // Sparse rho (decoded eagerly: values are metadata-sized).
  const uint8_t* q = reader.SectionData(ri);
  const uint8_t* qend = q + reader.Section(ri).bytes;
  uint64_t num_values;
  if (!ReadVarint(&q, qend, &num_values) ||
      num_values != reader.Section(ri).count) {
    return corrupt("corrupt rho section (count mismatch)");
  }
  uint64_t prev = 0;
  for (uint64_t i = 0; i < num_values; ++i) {
    uint64_t delta;
    if (!ReadVarint(&q, qend, &delta)) {
      return corrupt("corrupt rho section (stream ends early)");
    }
    uint64_t id = prev + delta;
    if (id >= num_objects) {
      return corrupt("rho entry for object id " + std::to_string(id) +
                     " past the dictionary (" + std::to_string(num_objects) +
                     " objects)");
    }
    prev = id + 1;
    DataValue value;
    TRIAL_RETURN_IF_ERROR(DecodeValue(&q, qend, origin, 0, &value));
    store.SetValue(static_cast<ObjId>(id), std::move(value));
  }
  if (q != qend) return corrupt("corrupt rho section (trailing bytes)");

  if (stats != nullptr) {
    stats->seconds = SecondsSince(t0);
    stats->bytes = reader.file()->size();
    stats->objects = num_objects;
    stats->relations = num_relations;
    stats->triples = total_triples;
  }
  if (MetricsEnabled()) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("snapshot.opens")->Increment();
    reg.GetCounter("snapshot.bytes_mapped")->Add(reader.file()->size());
    reg.GetHistogram("snapshot.open_ns")
        ->Observe(static_cast<uint64_t>(SecondsSince(t0) * 1e9));
  }
  return store;
}

size_t SnapshotDecodeCount(const TripleStore& store) {
  size_t n = 0;
  for (RelId r = 0; r < store.NumRelations(); ++r) {
    const TripleSegmentSource* src = store.Relation(r).snapshot_source();
    if (src != nullptr) n += src->decode_count();
  }
  return n;
}

}  // namespace trial
