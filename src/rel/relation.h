#ifndef CHAINSPLIT_REL_RELATION_H_
#define CHAINSPLIT_REL_RELATION_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "term/term.h"

namespace chainsplit {

/// A database tuple: one interned TermId per column. All values are
/// ground terms, so tuple equality is memberwise integer equality.
using Tuple = std::vector<TermId>;

struct TupleHash {
  size_t operator()(const Tuple& t) const { return HashVector(t); }
};

/// A deduplicated set of same-arity tuples with lazily built, but
/// incrementally maintained, hash indexes on column subsets.
///
/// Storage layout (see docs/perf_notes.md): all rows live in one
/// contiguous arena of TermIds with stride == arity; deduplication is
/// an open-addressing table of row ids hashed directly from arena
/// memory, and every index is a flat open-addressing table whose
/// per-key posting lists are chains threaded through that index's own
/// posting pool. No per-tuple heap allocation happens on
/// Insert/Contains/Probe.
///
/// This is the storage unit of both EDB relations and the intermediate
/// relations (deltas, magic sets, buffers) of the evaluators. Insertion
/// order is preserved for deterministic output; Probe postings are in
/// ascending row order (= insertion order).
///
/// Invalidation contract (same as the historical unordered_set-based
/// implementation): views returned by row()/Probe() stay valid while
/// the relation is only read, and across inserts *into other
/// relations*; inserting into this relation or moving it may invalidate
/// them.
///
/// Thread-safety: the const read surface (Contains, row, Probe,
/// ProbeEach, telemetry) is safe for any number of concurrent readers
/// as long as no thread mutates the relation (Insert/Clear/UnionWith
/// and move require exclusive access). Lazy index construction is
/// publication-safe: each index is built fully under an internal
/// mutex, then published through an atomic slot, so concurrent readers
/// can trigger index builds — including builds on different column
/// subsets — without a data race. A probe of an index that already
/// exists writes nothing shared.
class Relation {
 public:
  /// A borrowed, non-owning view of one stored row. Implicitly converts
  /// to Tuple when an owning copy is needed.
  class Row {
   public:
    // No default constructor: keeps brace-initialized Insert({...})
    // calls unambiguously resolving to the Tuple overload.
    Row(const TermId* data, int size) : data_(data), size_(size) {}

    TermId operator[](size_t i) const { return data_[i]; }
    size_t size() const { return static_cast<size_t>(size_); }
    bool empty() const { return size_ == 0; }
    const TermId* data() const { return data_; }
    const TermId* begin() const { return data_; }
    const TermId* end() const { return data_ + size_; }
    operator Tuple() const { return Tuple(begin(), end()); }

    friend bool operator==(const Row& a, const Row& b) {
      return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
    }
    friend bool operator==(const Row& a, const Tuple& b) {
      return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }
    friend bool operator==(const Tuple& a, const Row& b) { return b == a; }

   private:
    const TermId* data_ = nullptr;
    int size_ = 0;
  };

  /// The row ids matching one Probe key: a view over an index chain in
  /// the owning index's posting pool, or the single row a full-key
  /// probe found in the dedup table. Iteration yields int64_t row ids
  /// in insertion order.
  ///
  /// Chains are unrolled: each pool node is a 32-byte block of up to
  /// six row ids, so consuming a chain costs one dependent pointer
  /// chase per six postings and the block's row ids land in one cache
  /// line (the subsequent arena row loads can overlap).
  class Postings {
   public:
    struct PostingBlock {
      static constexpr uint32_t kCapacity = 6;
      uint32_t rows[kCapacity];
      uint32_t count;  // used entries in this block
      uint32_t next;   // next block id, or kNull
    };

    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = int64_t;
      using difference_type = std::ptrdiff_t;
      using pointer = const int64_t*;
      using reference = int64_t;

      const_iterator() = default;
      const_iterator(const std::vector<PostingBlock>* pool, uint32_t at)
          : pool_(pool), at_(at) {}
      int64_t operator*() const {
        if (pool_ == nullptr) return static_cast<int64_t>(at_);  // single
        return static_cast<int64_t>((*pool_)[at_].rows[slot_]);
      }
      const_iterator& operator++() {
        if (pool_ == nullptr) {
          at_ = kNull;
        } else if (++slot_ >= (*pool_)[at_].count) {
          at_ = (*pool_)[at_].next;
          slot_ = 0;
        }
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const const_iterator& a, const const_iterator& b) {
        return a.at_ == b.at_ && a.slot_ == b.slot_;
      }

     private:
      const std::vector<PostingBlock>* pool_ = nullptr;
      uint32_t at_ = kNull;
      uint32_t slot_ = 0;
    };

    Postings() = default;
    Postings(const std::vector<PostingBlock>* pool, uint32_t head,
             uint32_t count)
        : pool_(pool), head_(head), count_(count) {}
    /// Just row `row_id`; no pool behind it.
    static Postings Single(uint32_t row_id) {
      return Postings(nullptr, row_id, 1);
    }

    const_iterator begin() const { return const_iterator(pool_, head_); }
    const_iterator end() const { return const_iterator(pool_, kNull); }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    static constexpr uint32_t kNull = 0xFFFFFFFFu;

   private:
    const std::vector<PostingBlock>* pool_ = nullptr;
    uint32_t head_ = kNull;
    uint32_t count_ = 0;
  };

  /// Current storage footprint, computed on demand.
  struct Telemetry {
    int64_t arena_bytes = 0;     // arena capacity in bytes
    int64_t posting_blocks = 0;  // posting-pool size in blocks
  };

  explicit Relation(int arity) : arity_(arity) {}
  ~Relation() { DeleteIndexes(); }  // the index slots own their Index
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) noexcept;
  Relation& operator=(Relation&&) noexcept;

  int arity() const { return arity_; }
  int64_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Monotonic mutation counter: bumped on every *new* row inserted and
  /// on Clear. The query service's epoch-based cache invalidation
  /// compares snapshots of this value — equal versions guarantee the
  /// relation's logical contents are unchanged.
  uint64_t version() const { return version_; }

  /// Pre-sizes the arena and the dedup table for `n` rows (an arena
  /// that has to grow at least doubles).
  void Reserve(int64_t n);

  /// Inserts `tuple`; returns true when it was not already present.
  bool Insert(const Tuple& tuple) {
    CS_DCHECK(static_cast<int>(tuple.size()) == arity_)
        << "arity mismatch: got " << tuple.size() << ", want " << arity_;
    return InsertRow(tuple.data());
  }
  /// Allocation-free insert of a borrowed row (e.g. another relation's).
  bool Insert(Row row) {
    CS_DCHECK(static_cast<int>(row.size()) == arity_)
        << "arity mismatch: got " << row.size() << ", want " << arity_;
    return InsertRow(row.data());
  }

  bool Contains(const Tuple& tuple) const {
    if (static_cast<int>(tuple.size()) != arity_) return false;
    return FindRow(tuple.data()) >= 0;
  }
  bool Contains(Row row) const {
    if (static_cast<int>(row.size()) != arity_) return false;
    return FindRow(row.data()) >= 0;
  }

  /// Stable row access: rows keep their index forever (until Clear).
  Row row(int64_t i) const {
    return Row(arena_.data() + i * arity_, arity_);
  }
  int64_t num_rows() const { return num_rows_; }

  /// Row ids whose values at `columns` equal `key` (same order).
  /// Builds a hash index on `columns` on first use; subsequent inserts
  /// maintain it. A probe on every column is a membership test: one
  /// dedup-table lookup answers it, and no index is built. `columns`
  /// must be non-empty, sorted ascending and distinct.
  Postings Probe(const std::vector<int>& columns, const Tuple& key) const;

  /// Allocation-free probe: invokes `fn(int64_t row_id)` for every
  /// matching row, in insertion order. `key` holds columns.size()
  /// values. Reentrant: the callback may probe this or other relations
  /// (but must not insert into this one). A full-key probe is a dedup
  /// lookup, as in Probe.
  template <typename Fn>
  void ProbeEach(const std::vector<int>& columns, const TermId* key,
                 Fn&& fn) const {
    if (IsFullKey(columns)) {
      const int64_t row_id = FindRow(key);
      if (row_id >= 0) fn(row_id);
      return;
    }
    const Index& index = GetOrBuildIndex(columns);
    uint32_t bucket = FindBucket(index, key);
    if (bucket == kEmpty) return;
    for (uint32_t at = index.buckets[bucket].head; at != Postings::kNull;) {
      const PostingBlock block = index.pool[at];  // by value: cheap + safe
      for (uint32_t s = 0; s < block.count; ++s) {
        fn(static_cast<int64_t>(block.rows[s]));
      }
      at = block.next;
    }
  }
  template <typename Fn>
  void ProbeEach(const std::vector<int>& columns, const Tuple& key,
                 Fn&& fn) const {
    ProbeEach(columns, key.data(), static_cast<Fn&&>(fn));
  }

  /// Copies every tuple of `other` into this relation; returns the
  /// number of new tuples.
  int64_t UnionWith(const Relation& other);

  /// Removes all tuples (indexes are dropped).
  void Clear();

  Telemetry telemetry() const {
    Telemetry t;
    t.arena_bytes =
        static_cast<int64_t>(arena_.capacity() * sizeof(TermId));
    const int n = num_indexes_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      const Index* index = index_slots_[i].load(std::memory_order_relaxed);
      t.posting_blocks += static_cast<int64_t>(index->pool.size());
    }
    return t;
  }

 private:
  using PostingBlock = Postings::PostingBlock;
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  /// One column-subset index: open-addressing table of bucket ids; each
  /// bucket chains its postings through the index's own pool. A
  /// bucket's key is implicit — the indexed columns of its first row.
  /// Heap-allocated and published through an atomic slot (below), so
  /// an Index never moves after publication.
  struct Index {
    std::vector<int> columns;
    std::vector<uint32_t> slots;  // bucket ids, kEmpty = free; pow2 size
    struct Bucket {
      uint32_t head;
      uint32_t tail;
      uint32_t count;
      uint32_t rep;  // first row of the bucket; its key is the bucket key
    };
    std::vector<Bucket> buckets;
    std::vector<PostingBlock> pool;  // this index's posting blocks
  };

  const TermId* RowData(uint32_t row_id) const {
    return arena_.data() + static_cast<int64_t>(row_id) * arity_;
  }
  bool RowEquals(uint32_t row_id, const TermId* row) const {
    const TermId* stored = RowData(row_id);
    for (int c = 0; c < arity_; ++c) {
      if (stored[c] != row[c]) return false;
    }
    return true;
  }

  /// Final avalanche over the hash-combine chain so linear probing sees
  /// well-spread low bits.
  static size_t MixHash(size_t h) { return HashFinalize(h); }
  size_t RowHash(const TermId* row) const {
    return MixHash(HashRange(row, static_cast<size_t>(arity_)));
  }
  static size_t KeyHash(const TermId* key, size_t n) {
    return MixHash(HashRange(key, n));
  }
  size_t RowKeyHash(uint32_t row_id, const std::vector<int>& columns) const {
    const TermId* r = RowData(row_id);
    size_t seed = columns.size();
    for (int c : columns) HashCombine(&seed, static_cast<size_t>(r[c]));
    return MixHash(seed);
  }
  bool RowKeyEquals(uint32_t row_id, const std::vector<int>& columns,
                    const TermId* key) const {
    const TermId* r = RowData(row_id);
    for (size_t k = 0; k < columns.size(); ++k) {
      if (r[columns[k]] != key[k]) return false;
    }
    return true;
  }

  /// True when sorted, distinct `columns` name every column.
  bool IsFullKey(const std::vector<int>& columns) const {
    return static_cast<int>(columns.size()) == arity_;
  }

  bool InsertRow(const TermId* row);
  /// Row id of `row` in the dedup table, or -1.
  int64_t FindRow(const TermId* row) const;
  void GrowDedup(size_t min_slots);

  Index& GetOrBuildIndex(const std::vector<int>& columns) const;
  Index* FindIndex(const std::vector<int>& columns) const;
  /// Slot whose bucket matches `key`, or kEmpty.
  uint32_t FindBucket(const Index& index, const TermId* key) const;
  void IndexInsert(Index* index, uint32_t row_id) const;
  void GrowIndexSlots(Index* index) const;
  void DeleteIndexes();

  /// Upper bound on distinct column-subset indexes per relation. The
  /// slots are a fixed array so publication is a pointer store plus a
  /// release on the count — no reallocation a concurrent reader could
  /// trip over. Probed subsets come from join orders over small
  /// arities, so a handful is the realistic maximum.
  static constexpr int kMaxIndexes = 16;

  int arity_;
  int64_t num_rows_ = 0;
  uint64_t version_ = 0;
  std::vector<TermId> arena_;      // rows back-to-back, stride = arity
  std::vector<uint32_t> slots_;    // dedup table: row ids; pow2 size
  // Indexes are caches: mutating them does not change the logical
  // value, so they live behind `mutable` and may be built from const
  // readers. index_slots_[i] for i < num_indexes_ (acquire) is a fully
  // built, immutable-until-exclusive-insert Index.
  mutable std::array<std::atomic<Index*>, kMaxIndexes> index_slots_{};
  mutable std::atomic<int> num_indexes_{0};
  mutable std::mutex index_mu_;  // serializes index builds
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_REL_RELATION_H_
