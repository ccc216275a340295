#include "util/interner.h"

#include <algorithm>
#include <cassert>

namespace trial {
namespace {

// Debug enforcement of the header's thread-safety contract.  The
// writer bias is far below any plausible reader count, so a negative
// state always means "a writer is active".
constexpr int kWriterBias = 1 << 24;

struct ReaderGuard {
#ifndef NDEBUG
  explicit ReaderGuard(const AccessCheck& c) : check(c) {
    int prev = check.state.fetch_add(1, std::memory_order_acquire);
    assert(prev >= 0 && "StringInterner lookup during a mutation");
    (void)prev;
  }
  ~ReaderGuard() { check.state.fetch_sub(1, std::memory_order_release); }
  const AccessCheck& check;
#else
  explicit ReaderGuard(const AccessCheck&) {}
#endif
};

struct WriterGuard {
#ifndef NDEBUG
  explicit WriterGuard(const AccessCheck& c) : check(c) {
    int prev = check.state.fetch_sub(kWriterBias, std::memory_order_acquire);
    assert(prev == 0 &&
           "StringInterner mutation overlapping another access "
           "(single-writer contract)");
    (void)prev;
  }
  ~WriterGuard() { check.state.fetch_add(kWriterBias, std::memory_order_release); }
  const AccessCheck& check;
#else
  explicit WriterGuard(const AccessCheck&) {}
#endif
};

// Arena block size; a longer name gets a block of its own.
constexpr size_t kBlockBytes = 64 << 10;
// The table grows past 3/4 full.
constexpr size_t kMinSlots = 16;
size_t SlotsFor(size_t n) {
  size_t cap = kMinSlots;
  while (cap * 3 < n * 4) cap *= 2;
  return cap;
}

// InternBatch works in groups of this many names (stack buffers).
constexpr size_t kBatchGroup = 256;

inline void Prefetch(const void* p) { __builtin_prefetch(p, 0, 1); }

}  // namespace

// ---- Arena ---------------------------------------------------------------

StringInterner::Arena& StringInterner::Arena::operator=(const Arena& o) {
  if (this != &o) {
    blocks_ = o.blocks_;
    cur_ = nullptr;
    left_ = 0;
  }
  return *this;
}

StringInterner::Arena::Arena(Arena&& o) noexcept
    : blocks_(std::move(o.blocks_)), cur_(o.cur_), left_(o.left_) {
  o.blocks_.clear();
  o.cur_ = nullptr;
  o.left_ = 0;
}

StringInterner::Arena& StringInterner::Arena::operator=(Arena&& o) noexcept {
  if (this != &o) {
    blocks_ = std::move(o.blocks_);
    cur_ = o.cur_;
    left_ = o.left_;
    o.blocks_.clear();
    o.cur_ = nullptr;
    o.left_ = 0;
  }
  return *this;
}

std::string_view StringInterner::Arena::Store(std::string_view s) {
  if (s.size() > left_) {
    const size_t bytes = std::max(kBlockBytes, s.size());
    blocks_.emplace_back(new char[bytes]);
    cur_ = blocks_.back().get();
    left_ = bytes;
  }
  // An empty name still gets a non-null pointer when a block exists;
  // views of length 0 never dereference it.
  if (!s.empty()) std::memcpy(cur_, s.data(), s.size());
  std::string_view stored(cur_, s.size());
  cur_ += s.size();
  left_ -= s.size();
  return stored;
}

// ---- table ---------------------------------------------------------------

void StringInterner::Place(uint32_t tag, InternId id) {
  size_t i = tag & mask_;
  while (slots_[i].id != kInvalidIntern) i = (i + 1) & mask_;
  slots_[i] = Slot{tag, id};
}

void StringInterner::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{0, kInvalidIntern});
  mask_ = capacity - 1;
  for (const Slot& s : old) {
    if (s.id != kInvalidIntern) Place(s.tag, s.id);
  }
}

void StringInterner::EnsureIndex() const {
  if (index_built_) return;
  auto* self = const_cast<StringInterner*>(this);
  self->slots_.assign(SlotsFor(size()), Slot{0, kInvalidIntern});
  self->mask_ = slots_.size() - 1;
  for (size_t id = 0; id < size(); ++id) {
    self->Place(Tag(HashName(View(static_cast<InternId>(id)))),
                static_cast<InternId>(id));
  }
  index_built_ = true;
}

void StringInterner::AdoptFrozen(FrozenStrings frozen) {
  WriterGuard guard(check_);
  assert(empty() && "AdoptFrozen requires an empty interner");
  frozen_ = std::move(frozen);
  // Defer the table until something actually looks a name up: snapshot
  // open must not touch the string bytes.
  slots_.clear();
  mask_ = 0;
  index_built_ = frozen_.count == 0;
}

void StringInterner::Reserve(size_t n) {
  WriterGuard guard(check_);
  if (n > frozen_.count) names_.reserve(n - frozen_.count);
  if (!index_built_) return;  // the lazy build sizes itself
  if (SlotsFor(n) > slots_.size()) Rehash(SlotsFor(n));
}

InternId StringInterner::InternHashed(std::string_view s, uint64_t h) {
  const uint32_t tag = Tag(h);
  if (slots_.empty()) Rehash(kMinSlots);
  size_t i = tag & mask_;
  for (;; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidIntern) break;
    if (slot.tag == tag && View(slot.id) == s) return slot.id;
  }
  const InternId id = static_cast<InternId>(size());
  names_.push_back(arena_.Store(s));
  if (size() * 4 > slots_.size() * 3) {
    Rehash(slots_.size() * 2);
    Place(tag, id);
  } else {
    slots_[i] = Slot{tag, id};
  }
  return id;
}

InternId StringInterner::Intern(std::string_view s) {
  WriterGuard guard(check_);
  if (!index_built_) EnsureIndex();
  return InternHashed(s, HashName(s));
}

void StringInterner::InternBatch(const std::string_view* names, size_t n,
                                 InternId* ids) {
  WriterGuard guard(check_);
  if (!index_built_) EnsureIndex();
  uint64_t hash[kBatchGroup];
  for (size_t base = 0; base < n; base += kBatchGroup) {
    const size_t m = std::min(kBatchGroup, n - base);
    const std::string_view* group = names + base;
    // Stage 1: hash every name and prefetch its home slot.
    for (size_t k = 0; k < m; ++k) {
      hash[k] = HashName(group[k]);
      if (!slots_.empty()) Prefetch(&slots_[Tag(hash[k]) & mask_]);
    }
    // Stage 2: a home slot whose tag matches names the likely id;
    // prefetch that id's name entry.
    if (!slots_.empty()) {
      for (size_t k = 0; k < m; ++k) {
        const Slot& slot = slots_[Tag(hash[k]) & mask_];
        if (slot.id == kInvalidIntern || slot.tag != Tag(hash[k])) continue;
        if (slot.id < frozen_.count) {
          Prefetch(&frozen_.offsets[slot.id]);
        } else {
          Prefetch(&names_[slot.id - frozen_.count]);
        }
      }
      // Stage 3: prefetch the candidate names' bytes.
      for (size_t k = 0; k < m; ++k) {
        const Slot& slot = slots_[Tag(hash[k]) & mask_];
        if (slot.id == kInvalidIntern || slot.tag != Tag(hash[k])) continue;
        Prefetch(View(slot.id).data());
      }
    }
    // Stage 4: intern strictly in order, so ids match per-name Intern.
    for (size_t k = 0; k < m; ++k) {
      ids[base + k] = InternHashed(group[k], hash[k]);
    }
  }
}

#ifndef NDEBUG
InternId StringInterner::TryGet(std::string_view s) const {
  if (!index_built_) {
    // The lazy table build is a mutation under the contract; take the
    // writer role for it so an overlapping access asserts loudly.
    WriterGuard guard(check_);
    EnsureIndex();
  }
  ReaderGuard guard(check_);
  return Find(s, HashName(s));
}

std::string_view StringInterner::Get(InternId id) const {
  ReaderGuard guard(check_);
  return View(id);
}
#endif

std::vector<InternId> StringInterner::MergeFrom(const StringInterner& other) {
  std::vector<InternId> remap(other.size());
  Reserve(size() + other.size());
  std::vector<std::string_view> batch;
  batch.reserve(std::min(other.size(), kBatchGroup));
  for (size_t base = 0; base < other.size(); base += kBatchGroup) {
    const size_t m = std::min(kBatchGroup, other.size() - base);
    batch.clear();
    for (size_t k = 0; k < m; ++k) {
      batch.push_back(other.Get(static_cast<InternId>(base + k)));
    }
    InternBatch(batch.data(), m, remap.data() + base);
  }
  return remap;
}

}  // namespace trial
