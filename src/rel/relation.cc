#include "rel/relation.h"

#include <algorithm>
#include <functional>
#include <memory>

namespace chainsplit {
namespace {

/// Open-addressing load limit: grow when occupied * kLoadDen >=
/// capacity * kLoadNum (i.e. load factor 0.7).
constexpr size_t kLoadNum = 7;
constexpr size_t kLoadDen = 10;
constexpr size_t kMinSlots = 16;

size_t NextPow2(size_t n) {
  size_t p = kMinSlots;
  while (p < n) p <<= 1;
  return p;
}

size_t SlotsFor(size_t rows) {
  return NextPow2(rows * kLoadDen / kLoadNum + 1);
}

}  // namespace

void Relation::DeleteIndexes() {
  const int n = num_indexes_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    delete index_slots_[i].load(std::memory_order_relaxed);
    index_slots_[i].store(nullptr, std::memory_order_relaxed);
  }
  num_indexes_.store(0, std::memory_order_release);
}

// The atomic index slots rule out the defaulted move members. Moves happen
// only in single-threaded contexts (no concurrent reader may hold a
// reference across a move).
Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      num_rows_(other.num_rows_),
      version_(other.version_),
      arena_(std::move(other.arena_)),
      slots_(std::move(other.slots_)) {
  const int n = other.num_indexes_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    index_slots_[i].store(other.index_slots_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    other.index_slots_[i].store(nullptr, std::memory_order_relaxed);
  }
  num_indexes_.store(n, std::memory_order_relaxed);
  other.num_indexes_.store(0, std::memory_order_relaxed);
  other.num_rows_ = 0;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  DeleteIndexes();
  arity_ = other.arity_;
  num_rows_ = other.num_rows_;
  version_ = other.version_;
  arena_ = std::move(other.arena_);
  slots_ = std::move(other.slots_);
  const int n = other.num_indexes_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    index_slots_[i].store(other.index_slots_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    other.index_slots_[i].store(nullptr, std::memory_order_relaxed);
  }
  num_indexes_.store(n, std::memory_order_relaxed);
  other.num_indexes_.store(0, std::memory_order_relaxed);
  other.num_rows_ = 0;
  return *this;
}

void Relation::Reserve(int64_t n) {
  if (n <= 0) return;
  // At least doubling, so callers that reserve a few rows more per call
  // (one small update after another) stay amortized O(1) per row.
  const size_t cells = static_cast<size_t>(n) * arity_;
  if (cells > arena_.capacity()) {
    arena_.reserve(std::max(cells, 2 * arena_.capacity()));
  }
  size_t want = SlotsFor(static_cast<size_t>(n));
  if (want > slots_.size()) GrowDedup(want);
}

int64_t Relation::FindRow(const TermId* row) const {
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  size_t idx = RowHash(row) & mask;
  while (slots_[idx] != kEmpty) {
    if (RowEquals(slots_[idx], row)) return static_cast<int64_t>(slots_[idx]);
    idx = (idx + 1) & mask;
  }
  return -1;
}

void Relation::GrowDedup(size_t min_slots) {
  size_t capacity = NextPow2(min_slots);
  slots_.assign(capacity, kEmpty);
  const size_t mask = capacity - 1;
  for (int64_t i = 0; i < num_rows_; ++i) {
    size_t idx = RowHash(RowData(static_cast<uint32_t>(i))) & mask;
    while (slots_[idx] != kEmpty) idx = (idx + 1) & mask;
    slots_[idx] = static_cast<uint32_t>(i);
  }
}

bool Relation::InsertRow(const TermId* row) {
  if (slots_.empty()) GrowDedup(kMinSlots);
  const size_t mask = slots_.size() - 1;
  size_t idx = RowHash(row) & mask;
  while (slots_[idx] != kEmpty) {
    if (RowEquals(slots_[idx], row)) return false;
    idx = (idx + 1) & mask;
  }
  CS_CHECK(num_rows_ < static_cast<int64_t>(kEmpty))
      << "relation exceeds 2^32-1 rows";
  // `row` may alias this relation's own arena (self-insertion of a
  // stored row); vector::insert must not be given a range into itself.
  const auto src = reinterpret_cast<uintptr_t>(row);
  const auto lo = reinterpret_cast<uintptr_t>(arena_.data());
  const auto hi =
      reinterpret_cast<uintptr_t>(arena_.data() + arena_.size());
  if (src >= lo && src < hi) {
    Tuple copy(row, row + arity_);
    arena_.insert(arena_.end(), copy.begin(), copy.end());
  } else {
    arena_.insert(arena_.end(), row, row + arity_);
  }
  const uint32_t row_id = static_cast<uint32_t>(num_rows_);
  slots_[idx] = row_id;
  ++num_rows_;
  ++version_;
  const int n = num_indexes_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    IndexInsert(index_slots_[i].load(std::memory_order_relaxed), row_id);
  }
  if (static_cast<size_t>(num_rows_) * kLoadDen >=
      slots_.size() * kLoadNum) {
    GrowDedup(slots_.size() * 2);
  }
  return true;
}

uint32_t Relation::FindBucket(const Index& index, const TermId* key) const {
  if (index.slots.empty()) return kEmpty;
  const size_t mask = index.slots.size() - 1;
  size_t idx = KeyHash(key, index.columns.size()) & mask;
  while (index.slots[idx] != kEmpty) {
    const Index::Bucket& bucket = index.buckets[index.slots[idx]];
    if (RowKeyEquals(bucket.rep, index.columns, key)) return index.slots[idx];
    idx = (idx + 1) & mask;
  }
  return kEmpty;
}

void Relation::GrowIndexSlots(Index* index) const {
  size_t capacity =
      index->slots.empty() ? kMinSlots : index->slots.size() * 2;
  capacity = NextPow2(std::max(capacity, SlotsFor(index->buckets.size())));
  index->slots.assign(capacity, kEmpty);
  const size_t mask = capacity - 1;
  for (size_t b = 0; b < index->buckets.size(); ++b) {
    size_t idx = RowKeyHash(index->buckets[b].rep, index->columns) & mask;
    while (index->slots[idx] != kEmpty) idx = (idx + 1) & mask;
    index->slots[idx] = static_cast<uint32_t>(b);
  }
}

void Relation::IndexInsert(Index* index, uint32_t row_id) const {
  if (index->slots.empty()) GrowIndexSlots(index);
  std::vector<PostingBlock>& pool = index->pool;
  CS_CHECK(pool.size() < Postings::kNull) << "posting pool overflow";
  const size_t mask = index->slots.size() - 1;
  const TermId* row = RowData(row_id);
  size_t idx = RowKeyHash(row_id, index->columns) & mask;
  while (index->slots[idx] != kEmpty) {
    Index::Bucket& bucket = index->buckets[index->slots[idx]];
    const TermId* rep = RowData(bucket.rep);
    bool same = true;
    for (int c : index->columns) {
      if (rep[c] != row[c]) {
        same = false;
        break;
      }
    }
    if (same) {
      // Existing key: append into the tail block, unrolling into a new
      // block when it is full.
      PostingBlock& tail = pool[bucket.tail];
      if (tail.count < PostingBlock::kCapacity) {
        tail.rows[tail.count++] = row_id;
      } else {
        const uint32_t node = static_cast<uint32_t>(pool.size());
        pool.push_back(PostingBlock{{row_id}, 1, Postings::kNull});
        pool[bucket.tail].next = node;
        bucket.tail = node;
      }
      ++bucket.count;
      return;
    }
    idx = (idx + 1) & mask;
  }
  const uint32_t node = static_cast<uint32_t>(pool.size());
  pool.push_back(PostingBlock{{row_id}, 1, Postings::kNull});
  index->slots[idx] = static_cast<uint32_t>(index->buckets.size());
  index->buckets.push_back(Index::Bucket{node, node, 1, row_id});
  if (index->buckets.size() * kLoadDen >= index->slots.size() * kLoadNum) {
    GrowIndexSlots(index);
  }
}

Relation::Index& Relation::GetOrBuildIndex(
    const std::vector<int>& columns) const {
  // Fast path: already published (acquire on the count pairs with the
  // release in the builder, so the Index contents are visible).
  if (Index* found = FindIndex(columns)) return *found;
  std::lock_guard<std::mutex> lock(index_mu_);
  // Re-check: another reader may have built it while we waited.
  if (Index* found = FindIndex(columns)) return *found;
  const int n = num_indexes_.load(std::memory_order_relaxed);
  CS_CHECK(n < kMaxIndexes) << "more than " << kMaxIndexes
                            << " column-subset indexes on one relation";
  auto built = std::make_unique<Index>();
  built->columns = columns;
  built->buckets.reserve(16);
  for (int64_t i = 0; i < num_rows_; ++i) {
    IndexInsert(built.get(), static_cast<uint32_t>(i));
  }
  // Publish: slot pointer first, then the count with release so any
  // reader that observes the new count sees a complete Index.
  Index* index = built.release();
  index_slots_[n].store(index, std::memory_order_relaxed);
  num_indexes_.store(n + 1, std::memory_order_release);
  return *index;
}

Relation::Index* Relation::FindIndex(const std::vector<int>& columns) const {
  const int n = num_indexes_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    Index* index = index_slots_[i].load(std::memory_order_relaxed);
    if (index->columns == columns) return index;
  }
  return nullptr;
}

Relation::Postings Relation::Probe(const std::vector<int>& columns,
                                   const Tuple& key) const {
  CS_DCHECK(!columns.empty()) << "Probe requires at least one column";
  CS_DCHECK(std::adjacent_find(columns.begin(), columns.end(),
                               std::greater_equal<int>()) == columns.end())
      << "Probe columns must be sorted and distinct";
  if (IsFullKey(columns)) {
    const int64_t row_id = FindRow(key.data());
    return row_id < 0 ? Postings()
                      : Postings::Single(static_cast<uint32_t>(row_id));
  }
  const Index& index = GetOrBuildIndex(columns);
  uint32_t bucket = FindBucket(index, key.data());
  if (bucket == kEmpty) return Postings();
  return Postings(&index.pool, index.buckets[bucket].head,
                  index.buckets[bucket].count);
}

int64_t Relation::UnionWith(const Relation& other) {
  CS_DCHECK(other.arity() == arity_) << "UnionWith arity mismatch";
  int64_t added = 0;
  Reserve(num_rows_ + other.num_rows());
  for (int64_t i = 0; i < other.num_rows(); ++i) {
    if (InsertRow(other.RowData(static_cast<uint32_t>(i)))) ++added;
  }
  return added;
}

void Relation::Clear() {
  num_rows_ = 0;
  ++version_;
  arena_.clear();
  slots_.clear();
  DeleteIndexes();
}

}  // namespace chainsplit
