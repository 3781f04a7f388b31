#include "eval/relation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace ldl {

size_t Relation::FindRow(RowRef tuple, uint64_t hash) const {
  size_t mask = table_.size() - 1;
  size_t idx = hash & mask;
  while (table_[idx] != kEmptySlot) {
    uint32_t row = table_[idx];
    if (row_hash_[row] == hash &&
        std::equal(tuple.begin(), tuple.end(), data_.begin() + row * arity_)) {
      return row;
    }
    idx = (idx + 1) & mask;
  }
  return kNoRow;
}

void Relation::GrowTable() {
  size_t capacity = table_.empty() ? 16 : table_.size() * 2;
  table_.assign(capacity, kEmptySlot);
  size_t mask = capacity - 1;
  for (size_t row = 0; row < row_count_; ++row) {
    size_t idx = row_hash_[row] & mask;
    while (table_[idx] != kEmptySlot) idx = (idx + 1) & mask;
    table_[idx] = static_cast<uint32_t>(row);
  }
}

bool Relation::Insert(RowRef tuple) {
  assert(tuple.size() == arity_);
  // Grow at 7/8 load (entries are never removed, so load only rises).
  if ((row_count_ + 1) * 8 >= table_.size() * 7) GrowTable();
  uint64_t hash = HashRow(tuple);
  size_t mask = table_.size() - 1;
  size_t idx = hash & mask;
  while (table_[idx] != kEmptySlot) {
    uint32_t row = table_[idx];
    if (row_hash_[row] == hash &&
        std::equal(tuple.begin(), tuple.end(), data_.begin() + row * arity_)) {
      if (live_[row]) {
        if (counted_) {
          // A pinned (saturated) count can never reach zero again, so the
          // counts as a whole stop being trustworthy for deletion.
          if (counts_[row] == UINT32_MAX) {
            DisableCounts();
          } else {
            ++counts_[row];
          }
        }
        return false;
      }
      // Re-insert of a tombstoned fact: revive in place. The row keeps its
      // old id, so delta windows opened after the deletion will not see it;
      // the magic scheduler re-runs affected rules anyway. Index entries for
      // the row were never removed, so no index repair is needed either.
      live_[row] = true;
      ++live_count_;
      if (counted_) counts_[row] = 1;
      return true;
    }
    idx = (idx + 1) & mask;
  }
  size_t row = row_count_++;
  table_[idx] = static_cast<uint32_t>(row);
  data_.insert(data_.end(), tuple.begin(), tuple.end());
  row_hash_.push_back(hash);
  live_.push_back(true);
  ++live_count_;
  if (counted_) counts_.push_back(1);
  // Fold the new row into the per-column distinct sketches (planner stats).
  if (sketches_.size() < arity_) sketches_.resize(arity_, ColumnSketch{});
  for (uint32_t col = 0; col < arity_; ++col) {
    uint64_t pos = tuple[col]->hash() & (kSketchWords * 64 - 1);
    sketches_[col][pos >> 6] |= uint64_t{1} << (pos & 63);
  }
  // Maintain built indexes. Insert only runs in single-writer phases (the
  // engine's evaluation or the Service writer), so mutating the maps is safe.
  for (CompositeIndex* index = index_head_.load(std::memory_order_acquire);
       index != nullptr; index = index->next) {
    uint64_t h = 0x7e11ab1eULL;
    for (uint32_t col : index->cols) h = HashCombine(h, tuple[col]->hash());
    index->map[h].push_back(static_cast<uint32_t>(row));
  }
  return true;
}

bool Relation::Contains(RowRef tuple) const {
  return ContainsHashed(tuple, HashRow(tuple));
}

bool Relation::ContainsHashed(RowRef tuple, uint64_t hash) const {
  if (table_.empty()) return false;
  size_t row = FindRow(tuple, hash);
  return row != kNoRow && live_[row];
}

size_t Relation::Find(RowRef tuple) const {
  if (table_.empty()) return npos;
  size_t row = FindRow(tuple, HashRow(tuple));
  return row == kNoRow ? npos : row;
}

bool Relation::Erase(RowRef tuple) {
  if (table_.empty()) return false;
  size_t row = FindRow(tuple, HashRow(tuple));
  if (row == kNoRow || !live_[row]) return false;
  live_[row] = false;
  --live_count_;
  return true;
}

const Relation::CompositeIndex& Relation::EnsureIndex(
    std::span<const uint32_t> cols) const {
  // Fast path: lock-free walk of the published list.
  for (const CompositeIndex* index = index_head_.load(std::memory_order_acquire);
       index != nullptr; index = index->next) {
    if (std::equal(index->cols.begin(), index->cols.end(), cols.begin(),
                   cols.end())) {
      return *index;
    }
  }
  // Miss: build under the lock, re-checking for a racing builder. The node
  // is fully constructed before the release store publishes it, so readers
  // that observe the new head see a complete index.
  std::lock_guard<std::mutex> lock(index_mu_);
  CompositeIndex* head = index_head_.load(std::memory_order_relaxed);
  for (CompositeIndex* index = head; index != nullptr; index = index->next) {
    if (std::equal(index->cols.begin(), index->cols.end(), cols.begin(),
                   cols.end())) {
      return *index;
    }
  }
  auto* index = new CompositeIndex;
  index->cols.assign(cols.begin(), cols.end());
  index->map.reserve(row_count_);
  // Index tombstoned rows too: a later revival keeps the row id, and probes
  // filter on live_ anyway.
  for (size_t row = 0; row < row_count_; ++row) {
    uint64_t h = 0x7e11ab1eULL;
    for (uint32_t col : index->cols) {
      h = HashCombine(h, data_[row * arity_ + col]->hash());
    }
    index->map[h].push_back(static_cast<uint32_t>(row));
  }
  index->next = head;
  index_head_.store(index, std::memory_order_release);
  return *index;
}

void Relation::FreeIndexes() {
  CompositeIndex* index = index_head_.exchange(nullptr, std::memory_order_acquire);
  while (index != nullptr) {
    CompositeIndex* next = index->next;
    delete index;
    index = next;
  }
}

void Relation::Probe(uint32_t column, const Term* value, size_t from, size_t to,
                     std::vector<size_t>* out) const {
  out->clear();
  ProbeRows({&column, 1}, {&value, 1}, from, to, [&](size_t row) {
    out->push_back(row);
    return true;
  });
}

double Relation::DistinctEstimate(uint32_t column) const {
  if (column >= sketches_.size() || live_count_ == 0) {
    return static_cast<double>(live_count_);
  }
  constexpr double kBits = kSketchWords * 64;
  size_t ones = 0;
  for (uint64_t word : sketches_[column]) ones += std::popcount(word);
  size_t zeros = kSketchWords * 64 - ones;
  // Linear counting: E[distinct] = B * ln(B / zeros). A saturated sketch
  // (zeros == 0) can't discriminate beyond ~B*ln(B); fall back to the row
  // count, which is the true upper bound anyway.
  double estimate = zeros == 0
                        ? static_cast<double>(live_count_)
                        : kBits * std::log(kBits / static_cast<double>(zeros));
  return std::min(estimate, static_cast<double>(live_count_));
}

RelationStats Relation::Stats() const {
  RelationStats stats;
  stats.rows = live_count_;
  stats.raw_rows = row_count_;
  stats.column_distinct.reserve(arity_);
  for (uint32_t col = 0; col < arity_; ++col) {
    stats.column_distinct.push_back(DistinctEstimate(col));
  }
  return stats;
}

std::vector<Tuple> Relation::Snapshot() const {
  std::vector<Tuple> result;
  result.reserve(live_count_);
  for (size_t i = 0; i < row_count_; ++i) {
    if (live_[i]) {
      RowRef r = row(i);
      result.emplace_back(r.begin(), r.end());
    }
  }
  return result;
}

void Relation::Clear() {
  data_.clear();
  row_count_ = 0;
  row_hash_.clear();
  live_.clear();
  live_count_ = 0;
  table_.clear();
  counts_.clear();  // counted_ survives: re-derivation recounts from scratch
  sketches_.clear();
  // Keep the index nodes linked (holders of the relation may still walk
  // them); just drop their contents. Insert repopulates the maps, so a
  // retained index stays consistent with the emptied row store.
  for (CompositeIndex* index = index_head_.load(std::memory_order_acquire);
       index != nullptr; index = index->next) {
    index->map.clear();
  }
  ++epoch_;
}

void Database::Grow() {
  while (relations_.size() < catalog_->size()) {
    relations_.emplace_back(
        catalog_->info(static_cast<PredId>(relations_.size())).arity);
  }
}

Relation& Database::relation(PredId pred) {
  if (relations_.size() <= pred) Grow();
  return relations_[pred];
}

const Relation& Database::relation(PredId pred) const {
  return const_cast<Database*>(this)->relation(pred);
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const Relation& relation : relations_) total += relation.size();
  return total;
}

void Database::CopyFrom(const Database& other, const std::vector<PredId>& preds) {
  for (PredId pred : preds) {
    const Relation* source = other.FindRelation(pred);
    if (source == nullptr) continue;
    Relation& target = relation(pred);
    source->ForEachRow(0, source->row_count(),
                       [&](size_t, RowRef tuple) { target.Insert(tuple); });
  }
}

}  // namespace ldl
