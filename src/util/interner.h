// StringInterner: bidirectional string <-> dense id mapping.
//
// Object names (URIs, labels) are interned once and referred to by 32-bit
// ids everywhere else; triples are therefore 12 bytes and comparisons are
// integer comparisons.
//
// Layout: name bytes are appended to a block arena whose blocks never
// move or grow, so a view returned by Get stays valid for the
// interner's lifetime; a dense vector maps id -> view.  The name -> id
// index is an open-addressing (linear probing) table of 8-byte slots,
// each a 32-bit hash tag plus an id.  A probe compares tags first and
// reads a name only on a tag match, and growth rehashes from the tags
// alone without touching a single name byte.  Because slots hold ids,
// not views, copying an interner copies the table as is; the arena
// blocks are shared, and neither copy writes bytes the other reads.
//
// InternBatch is the bulk loader's hot path: it hashes a whole batch of
// terms, prefetches their slots, then the candidate names' entries,
// then the name bytes, and only then interns the terms strictly in
// order — the ids are exactly those of the same Intern calls, but the
// batch's cache misses overlap instead of running one after another.
//
// Thread-safety contract (relied on by the query kernels, which call
// TryGet/Get against a store dictionary built before evaluation): const
// lookups — TryGet, Get, size — are safe from any number of threads
// AFTER the dictionary is built, i.e. as long as no mutation runs
// concurrently.  Mutation — Intern, InternBatch, MergeFrom, Reserve,
// assignment — is single-writer: it must never overlap another
// mutation OR a lookup.  Debug builds assert-enforce the rule (see
// AccessCheck below); release builds pay nothing.
//
// Snapshot (frozen) mode: an interner opened from an on-disk store
// snapshot serves ids [0, frozen count) directly off the mmap'd
// dictionary segment — Get(id) is two loads, no decode, no copies —
// and the hash table over those strings is built lazily on the first
// TryGet/Intern, so *opening* a snapshot touches no string bytes.  That
// first lookup counts as a mutation under the contract above: warm it
// (any TryGet) before handing the dictionary to concurrent readers.
// Strings interned after open go to the arena, with ids continuing past
// the frozen block.

#ifndef TRIAL_UTIL_INTERNER_H_
#define TRIAL_UTIL_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace trial {

/// Debug-only enforcement of a single-writer / concurrent-reader
/// contract: readers raise `state` by 1 while active, a writer adds a
/// large negative bias, and both assert they never observe the other
/// (readers assert state >= 0, the writer asserts it was alone).  The
/// guard carries no real state — copies and moves reset it — and in
/// NDEBUG builds it is an empty struct.
struct AccessCheck {
#ifndef NDEBUG
  mutable std::atomic<int> state{0};
#endif
  AccessCheck() = default;
  AccessCheck(const AccessCheck&) {}
  AccessCheck& operator=(const AccessCheck&) { return *this; }
};

/// Dense id assigned to an interned string.  Ids start at 0 and are
/// contiguous, so they can index vectors directly.
using InternId = uint32_t;

/// Sentinel returned by TryGet for unknown strings.
inline constexpr InternId kInvalidIntern = UINT32_MAX;

/// A validated, immutable dictionary block inside an mmap'd snapshot:
/// `count` strings, string i spanning bytes [offsets[i], offsets[i+1]).
/// The open path validated monotonicity and bounds, so Get can slice
/// views without further checks; `keepalive` pins the mapping.
struct FrozenStrings {
  std::shared_ptr<const void> keepalive;
  const char* bytes = nullptr;
  const uint64_t* offsets = nullptr;  ///< count + 1 entries
  size_t count = 0;
};

/// 64-bit hash of a name (multiply-xorshift over 8-byte words).  The
/// interner's slot tag is its high half.
inline uint64_t HashName(std::string_view s) {
  constexpr uint64_t kMul = 0x9fb21c651e98df25ULL;
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (n * kMul);
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * kMul;
  }
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  return h;
}

/// Bidirectional string <-> id dictionary.  Const lookups are safe
/// concurrently once built; mutation is single-writer and must not
/// overlap any other access (see the contract above).
class StringInterner {
 public:
  StringInterner() = default;

  /// Adopts a frozen dictionary block as ids [0, frozen.count).  Pre:
  /// the interner is empty.  The hash table over the block is built on
  /// the first lookup, not here (see the snapshot-mode contract above).
  void AdoptFrozen(FrozenStrings frozen);

  /// Returns the id for `s`, interning it if new.
  InternId Intern(std::string_view s);

  /// Interns names[0..n) in order, writing ids[i] — exactly the ids of
  /// n successive Intern calls (a name new to the dictionary that
  /// repeats inside the batch gets one id).  Every view must stay valid
  /// for the duration of the call only.
  void InternBatch(const std::string_view* names, size_t n, InternId* ids);

  /// Returns the id for `s` or kInvalidIntern if never interned.
  /// (Release builds keep the lookups inline — these are the matchers'
  /// hot paths; debug builds move them out-of-line to attach the
  /// contract-asserting guards.)
#ifdef NDEBUG
  InternId TryGet(std::string_view s) const {
    if (!index_built_) EnsureIndex();
    return Find(s, HashName(s));
  }
#else
  InternId TryGet(std::string_view s) const;
#endif

  /// Returns the string for an id.  Pre: id < size().
#ifdef NDEBUG
  std::string_view Get(InternId id) const { return View(id); }
#else
  std::string_view Get(InternId id) const;
#endif

  /// Pre-sizes the table and the id vector for about `n` strings.
  void Reserve(size_t n);

  /// Interns every string of `other` (in id order) and returns the
  /// remap table: remap[id_in_other] = id in this interner.  This is
  /// the shard-dictionary merge of the bulk loader: workers intern into
  /// private dictionaries, then their local ids are rewritten through
  /// the remap into the store's global dictionary.
  std::vector<InternId> MergeFrom(const StringInterner& other);

  size_t size() const { return frozen_.count + names_.size(); }
  bool empty() const { return size() == 0; }

 private:
  /// One table slot: the high half of the name's hash and its id
  /// (kInvalidIntern marks an empty slot).  The home slot is
  /// `tag & mask`, so growth rehashes from tags alone.
  struct Slot {
    uint32_t tag;
    InternId id;
  };

  /// Append-only byte storage in fixed blocks.  A copy shares the
  /// original's blocks and starts a fresh block on its next write; the
  /// original only appends past the bytes the copy can see.
  class Arena {
   public:
    Arena() = default;
    Arena(const Arena& o) : blocks_(o.blocks_) {}
    Arena& operator=(const Arena& o);
    Arena(Arena&& o) noexcept;
    Arena& operator=(Arena&& o) noexcept;
    /// Copies `s` into the arena; the returned view never moves.
    std::string_view Store(std::string_view s);

   private:
    std::vector<std::shared_ptr<char[]>> blocks_;
    char* cur_ = nullptr;  // free bytes of the newest block
    size_t left_ = 0;
  };

  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32);
  }

  std::string_view View(InternId id) const {
    return id < frozen_.count
               ? std::string_view(frozen_.bytes + frozen_.offsets[id],
                                  frozen_.offsets[id + 1] -
                                      frozen_.offsets[id])
               : names_[id - frozen_.count];
  }

  /// Id of `s` (hash `h`) or kInvalidIntern.  Pre: the table is built.
  InternId Find(std::string_view s, uint64_t h) const {
    if (slots_.empty()) return kInvalidIntern;
    const uint32_t tag = Tag(h);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kInvalidIntern) return kInvalidIntern;
      if (slot.tag == tag && View(slot.id) == s) return slot.id;
    }
  }

  /// Intern with a precomputed hash.  Pre: the table is built.
  InternId InternHashed(std::string_view s, uint64_t h);
  /// Places (tag, id) in the first free slot of its probe sequence.
  void Place(uint32_t tag, InternId id);
  /// Resizes the table to `capacity` slots (a power of two) and
  /// re-places every id from its tag.
  void Rehash(size_t capacity);
  /// Builds the table over the frozen block and the arena names.
  /// Effectively a mutation (the first-lookup warm-up after
  /// AdoptFrozen); callers hold the writer role or are documented as
  /// such.
  void EnsureIndex() const;

  // Ids [0, frozen_.count) live in the snapshot mapping; later ids are
  // names_[id - frozen_.count], views into arena_.
  FrozenStrings frozen_;
  std::vector<std::string_view> names_;
  Arena arena_;
  // The table is a cache over immutable names, hence mutable: the lazy
  // build after AdoptFrozen happens under a const lookup.  Empty until
  // the first name; otherwise a power of two with mask_ = size - 1.
  mutable std::vector<Slot> slots_;
  mutable size_t mask_ = 0;
  mutable bool index_built_ = true;
  AccessCheck check_;
};

}  // namespace trial

#endif  // TRIAL_UTIL_INTERNER_H_
