#ifndef SSQL_ENGINE_RDD_H_
#define SSQL_ENGINE_RDD_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/exec_context.h"
#include "util/string_util.h"

namespace ssql {

/// A typed, lazily-evaluated, partitioned collection — the procedural Spark
/// API of Section 2.1. Narrow transformations (Map/Filter/FlatMap) compose
/// their closures, so chains are pipelined within one pass per partition and
/// intermediate collections are never materialized (the "lines/errors" RDD
/// example of the paper). Wide transformations (ReduceByKey/GroupByKey) are
/// stage boundaries: on the first action the stage's input is materialized
/// on the worker pool and hash-shuffled.
///
/// Unlike DataFrames, the engine sees only opaque std::function closures
/// here — precisely why the optimizer can do nothing with them (Section 6.2).
template <typename T>
class RDD : public std::enable_shared_from_this<RDD<T>> {
 public:
  using Ptr = std::shared_ptr<RDD<T>>;

  /// Creates a leaf or derived RDD from a per-partition compute function.
  RDD(ExecContext* ctx, size_t num_partitions,
      std::function<std::vector<T>(size_t)> compute,
      std::function<void()> prepare = nullptr)
      : ctx_(ctx),
        num_partitions_(num_partitions),
        compute_(std::move(compute)),
        prepare_(std::move(prepare)) {}

  /// Distributes `data` across `num_partitions` partitions.
  static Ptr Parallelize(ExecContext& ctx, std::vector<T> data,
                         size_t num_partitions) {
    if (num_partitions == 0) num_partitions = 1;
    auto shared = std::make_shared<std::vector<T>>(std::move(data));
    size_t total = shared->size();
    return std::make_shared<RDD<T>>(
        &ctx, num_partitions, [shared, total, num_partitions](size_t p) {
          size_t base = total / num_partitions;
          size_t extra = total % num_partitions;
          size_t begin = p * base + std::min(p, extra);
          size_t count = base + (p < extra ? 1 : 0);
          return std::vector<T>(shared->begin() + begin,
                                shared->begin() + begin + count);
        });
  }

  size_t num_partitions() const { return num_partitions_; }
  ExecContext& ctx() const { return *ctx_; }

  /// map: narrow, fused with the parent computation.
  template <typename F, typename U = std::invoke_result_t<F, const T&>>
  typename RDD<U>::Ptr Map(F fn) {
    auto self = this->shared_from_this();
    return std::make_shared<RDD<U>>(
        ctx_, num_partitions_,
        [self, fn](size_t p) {
          std::vector<T> input = self->ComputePartition(p);
          std::vector<U> out;
          out.reserve(input.size());
          for (const T& t : input) out.push_back(fn(t));
          return out;
        },
        [self] { self->Prepare(); });
  }

  /// flatMap: narrow; `fn` returns a vector<U> per element.
  template <typename F,
            typename U = typename std::invoke_result_t<F, const T&>::value_type>
  typename RDD<U>::Ptr FlatMap(F fn) {
    auto self = this->shared_from_this();
    return std::make_shared<RDD<U>>(
        ctx_, num_partitions_,
        [self, fn](size_t p) {
          std::vector<T> input = self->ComputePartition(p);
          std::vector<U> out;
          for (const T& t : input) {
            auto expanded = fn(t);
            for (auto& u : expanded) out.push_back(std::move(u));
          }
          return out;
        },
        [self] { self->Prepare(); });
  }

  /// filter: narrow, fused.
  Ptr Filter(std::function<bool(const T&)> pred) {
    auto self = this->shared_from_this();
    return std::make_shared<RDD<T>>(
        ctx_, num_partitions_,
        [self, pred](size_t p) {
          std::vector<T> input = self->ComputePartition(p);
          std::vector<T> out;
          out.reserve(input.size());
          for (const T& t : input) {
            if (pred(t)) out.push_back(t);
          }
          return out;
        },
        [self] { self->Prepare(); });
  }

  /// Marks this RDD for in-memory caching: each partition is computed once
  /// and reused by later actions (Section 2.1's explicit caching).
  Ptr Cache() {
    std::lock_guard<std::mutex> lock(mu_);
    if (cache_.empty()) cache_.resize(num_partitions_);
    cached_ = true;
    return this->shared_from_this();
  }

  /// Action: gathers all elements on the driver.
  std::vector<T> Collect() {
    Prepare();
    std::vector<std::vector<T>> parts(num_partitions_);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_partitions_);
    auto self = this->shared_from_this();
    for (size_t p = 0; p < num_partitions_; ++p) {
      tasks.push_back([self, &parts, p] { parts[p] = self->ComputePartition(p); });
    }
    ctx_->PinPool()->RunAll(std::move(tasks));
    std::vector<T> out;
    size_t total = 0;
    for (auto& part : parts) total += part.size();
    out.reserve(total);
    for (auto& part : parts) {
      for (auto& t : part) out.push_back(std::move(t));
    }
    return out;
  }

  /// Action: counts elements without gathering them.
  size_t Count() {
    Prepare();
    std::vector<size_t> counts(num_partitions_, 0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_partitions_);
    auto self = this->shared_from_this();
    for (size_t p = 0; p < num_partitions_; ++p) {
      tasks.push_back(
          [self, &counts, p] { counts[p] = self->ComputePartition(p).size(); });
    }
    ctx_->PinPool()->RunAll(std::move(tasks));
    size_t total = 0;
    for (size_t c : counts) total += c;
    return total;
  }

  /// Computes one partition, honoring the cache. Called from pool tasks for
  /// narrow chains; only actions and Prepare() run driver-side.
  std::vector<T> ComputePartition(size_t p) const {
    if (cached_) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (cache_[p].has_value()) return *cache_[p];
      }
      std::vector<T> data = compute_(p);
      std::lock_guard<std::mutex> lock(mu_);
      cache_[p] = data;
      return data;
    }
    return compute_(p);
  }

  /// Resolves shuffle dependencies; must run on the driver before tasks.
  void Prepare() const {
    if (prepare_) prepare_();
  }

 private:
  ExecContext* ctx_;
  size_t num_partitions_;
  std::function<std::vector<T>(size_t)> compute_;
  std::function<void()> prepare_;

  mutable std::mutex mu_;
  bool cached_ = false;
  mutable std::vector<std::optional<std::vector<T>>> cache_;
};

/// reduceByKey for pair RDDs: map-side combine, hash shuffle, reduce-side
/// merge — the wide dependency used by the Figure 9 native-API baseline.
/// `KeyHash`/equality come from std::hash/operator== of K.
template <typename K, typename V>
typename RDD<std::pair<K, V>>::Ptr ReduceByKey(
    typename RDD<std::pair<K, V>>::Ptr input,
    std::function<V(const V&, const V&)> reducer, size_t num_out = 0) {
  ExecContext& ctx = input->ctx();
  if (num_out == 0) num_out = input->num_partitions();

  // State shared with the lazily-prepared child RDD.
  struct ShuffleState {
    std::once_flag once;
    std::vector<std::vector<std::pair<K, V>>> outputs;
  };
  auto state = std::make_shared<ShuffleState>();
  auto do_shuffle = [input, reducer, num_out, state, &ctx] {
    std::call_once(state->once, [&] {
      input->Prepare();
      size_t in_parts = input->num_partitions();
      // Map side: compute each parent partition, combine locally, bucket.
      std::vector<std::vector<std::unordered_map<K, V>>> buckets(in_parts);
      std::vector<std::function<void()>> map_tasks;
      map_tasks.reserve(in_parts);
      for (size_t p = 0; p < in_parts; ++p) {
        map_tasks.push_back([&, p] {
          auto data = input->ComputePartition(p);
          auto& local = buckets[p];
          local.resize(num_out);
          std::hash<K> hasher;
          for (auto& [k, v] : data) {
            size_t b = hasher(k) % num_out;
            auto it = local[b].find(k);
            if (it == local[b].end()) {
              local[b].emplace(k, v);
            } else {
              it->second = reducer(it->second, v);
            }
          }
        });
      }
      ctx.PinPool()->RunAll(std::move(map_tasks));

      // Reduce side: merge buckets.
      state->outputs.resize(num_out);
      std::vector<std::function<void()>> reduce_tasks;
      reduce_tasks.reserve(num_out);
      for (size_t b = 0; b < num_out; ++b) {
        reduce_tasks.push_back([&, b] {
          std::unordered_map<K, V> merged;
          for (auto& local : buckets) {
            for (auto& [k, v] : local[b]) {
              auto it = merged.find(k);
              if (it == merged.end()) {
                merged.emplace(k, std::move(v));
              } else {
                it->second = reducer(it->second, v);
              }
            }
          }
          auto& out = state->outputs[b];
          out.reserve(merged.size());
          for (auto& [k, v] : merged) out.emplace_back(k, std::move(v));
        });
      }
      ctx.PinPool()->RunAll(std::move(reduce_tasks));
    });
  };

  return std::make_shared<RDD<std::pair<K, V>>>(
      &ctx, num_out,
      [state](size_t p) { return state->outputs[p]; }, do_shuffle);
}

}  // namespace ssql

#endif  // SSQL_ENGINE_RDD_H_
