#include "columnar/columnar_cache.h"

#include <algorithm>
#include <functional>

namespace ssql {

std::shared_ptr<CachedTable> CachedTable::Build(const SchemaPtr& schema,
                                                const RowDataset& data,
                                                ThreadPool* pool) {
  auto table = std::make_shared<CachedTable>();
  table->schema_ = schema;
  table->chunks_.resize(data.num_partitions());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(data.num_partitions());
  for (size_t p = 0; p < data.num_partitions(); ++p) {
    table->num_rows_ += data.partition(p)->rows.size();
    tasks.push_back([&schema, &rows = data.partition(p)->rows,
                     &chunk = table->chunks_[p]] {
      chunk.num_rows = static_cast<uint32_t>(rows.size());
      chunk.columns =
          EncodeRows(*schema, rows.data(), rows.data() + rows.size());
    });
  }
  RunAllOn(pool, std::move(tasks));
  return table;
}

RowDataset CachedTable::Scan(const std::vector<int>& columns) const {
  std::vector<RowPartitionPtr> partitions;
  partitions.reserve(chunks_.size());
  for (const Chunk& chunk : chunks_) {
    auto part = std::make_shared<RowPartition>();
    part->rows.resize(chunk.num_rows);
    for (auto& row : part->rows) row.Reserve(columns.size());
    for (int c : columns) {
      ColumnVector decoded = DecodeColumn(chunk.columns[c]);
      for (uint32_t i = 0; i < chunk.num_rows; ++i) {
        part->rows[i].Append(decoded.GetValue(i));
      }
    }
    partitions.push_back(std::move(part));
  }
  return RowDataset(std::move(partitions));
}

size_t CachedTable::MemoryBytes() const {
  size_t bytes = 0;
  for (const Chunk& chunk : chunks_) {
    for (const EncodedColumn& col : chunk.columns) bytes += col.MemoryBytes();
  }
  return bytes;
}

size_t CachedTable::EstimatedRowCacheBytes() const {
  return num_rows_ * EstimateBoxedRowBytes(*schema_);
}

void CacheManager::Put(const std::string& key,
                       std::shared_ptr<const CachedTable> table) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = std::move(table);
}

std::shared_ptr<const CachedTable> CacheManager::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

void CacheManager::Remove(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(key);
}

void CacheManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t CacheManager::num_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t CacheManager::TotalMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [key, table] : entries_) bytes += table->MemoryBytes();
  return bytes;
}

}  // namespace ssql
