// Concurrent-execution tests: N driver threads sharing one SqlContext /
// ExecContext. Covers the per-query state isolation the QueryContext split
// exists for — cancellation tokens never cross-wire under BeginQuery
// contention, per-query profiles and results stay isolated while spilling
// and timed-out queries interleave with healthy ones, the FIFO admission
// gate bounds concurrency, spill namespaces never leak across queries, and
// SetConfig is rejected while queries are in flight. Run under
// ThreadSanitizer in CI (scripts/check.sh).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/sql_context.h"
#include "engine/exec_context.h"
#include "engine/query_context.h"
#include "engine/rdd.h"

namespace ssql {
namespace {

size_t FilesIn(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::exists(dir)) return 0;
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

std::string UniqueScratchDir(const std::string& tag) {
  return ::testing::TempDir() + "/ssql-conc-" + tag + "-" +
         std::to_string(::getpid());
}

// ---- ResolveTracePath ------------------------------------------------------

TEST(ResolveTracePathTest, InsertsQueryIdBeforeExtension) {
  EXPECT_EQ(ResolveTracePath("trace.json", 3), "trace-q3.json");
  EXPECT_EQ(ResolveTracePath("/a/b/trace.json", 7), "/a/b/trace-q7.json");
  EXPECT_EQ(ResolveTracePath("trace", 5), "trace-q5");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(ResolveTracePath("/a.b/trace", 5), "/a.b/trace-q5");
  EXPECT_EQ(ResolveTracePath("/a.b/trace.json", 5), "/a.b/trace-q5.json");
}

// ---- token / profile isolation under BeginQuery contention -----------------

TEST(QueryContextIsolationTest, BeginQueryUnderContentionNeverCrossWires) {
  // Many threads race BeginQuery on one engine; each cancels only its own
  // query with a unique reason. No token, profile, memory budget, or spill
  // namespace may be shared between any two QueryContexts.
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4;
  EngineConfig config;
  config.num_threads = 4;
  ExecContext engine(config);

  std::vector<QueryContextPtr> queries(kThreads * kQueriesPerThread);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        int slot = t * kQueriesPerThread + q;
        QueryContextPtr query = engine.BeginQuery();
        query->Cancel("abort-" + std::to_string(slot));
        queries[slot] = std::move(query);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::set<uint64_t> ids;
  std::set<const CancellationToken*> tokens;
  std::set<const QueryProfile*> profiles;
  std::set<std::string> spill_dirs;
  for (int slot = 0; slot < kThreads * kQueriesPerThread; ++slot) {
    const QueryContextPtr& query = queries[slot];
    ASSERT_NE(query, nullptr) << "slot " << slot;
    // Each query carries exactly the cancellation it was given — a shared
    // or swapped token would surface some other slot's reason here.
    EXPECT_TRUE(query->cancellation()->IsCancelled());
    EXPECT_EQ(query->cancellation()->StatusMessage(),
              "query cancelled: abort-" + std::to_string(slot));
    ids.insert(query->query_id());
    tokens.insert(query->cancellation().get());
    profiles.insert(&query->profile());
    spill_dirs.insert(query->spill_dir());
    EXPECT_NE(&query->memory(), &engine.engine_memory());
  }
  const size_t total = kThreads * kQueriesPerThread;
  EXPECT_EQ(ids.size(), total);
  EXPECT_EQ(tokens.size(), total);
  EXPECT_EQ(profiles.size(), total);
  EXPECT_EQ(spill_dirs.size(), total);

  for (auto& query : queries) query->Finish("ok");
  EXPECT_EQ(engine.active_queries(), 0u);
}

// ---- admission gate --------------------------------------------------------

TEST(AdmissionGateTest, MaxConcurrentQueriesBoundsAdmission) {
  EngineConfig config;
  config.num_threads = 2;
  config.max_concurrent_queries = 2;
  ExecContext engine(config);

  constexpr int kQueries = 8;
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&] {
      QueryContextPtr query = engine.BeginQuery();
      int now = active.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      admitted.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      active.fetch_sub(1);
      query->Finish("ok");
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(admitted.load(), kQueries);  // nobody starves
  EXPECT_LE(peak.load(), 2) << "admission gate admitted more than the cap";
  EXPECT_GE(peak.load(), 1);
  EXPECT_EQ(engine.active_queries(), 0u);
}

// ---- SetConfig vs running queries ------------------------------------------

TEST(SetConfigTest, RejectedWhileQueriesInFlightAcceptedWhenIdle) {
  ExecContext engine;
  QueryContextPtr query = engine.BeginQuery();
  EngineConfig next = engine.config();
  next.default_parallelism = 2;
  EXPECT_THROW(engine.SetConfig(next), ExecutionError);
  query->Finish("ok");
  EXPECT_NO_THROW(engine.SetConfig(next));
  EXPECT_EQ(engine.config().default_parallelism, 2u);
}

TEST(SetConfigTest, PoolRebuildLeavesARunningRddActionItsPool) {
  // An RDD action runs on the worker pool outside any query. Hold one open
  // on a latch and change num_threads: the engine gets a new pool, while
  // the action keeps the old one until it finishes.
  ExecContext engine;
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  auto rdd = RDD<int>::Parallelize(engine, {1, 2, 3, 4}, 2)->Map([&](int v) {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    return v * 10;
  });
  std::vector<int> collected;
  std::thread action([&] { collected = rdd->Collect(); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started > 0; });
  }
  ThreadPool* old_pool = &engine.pool();

  EngineConfig next = engine.config();
  next.num_threads += 1;
  EXPECT_NO_THROW(engine.SetConfig(next));
  EXPECT_NE(&engine.pool(), old_pool);
  EXPECT_EQ(engine.pool().num_threads(), next.num_threads);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  action.join();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, (std::vector<int>{10, 20, 30, 40}));
  // The engine keeps working on its new pool.
  EXPECT_EQ(RDD<int>::Parallelize(engine, {1, 2, 3}, 3)->Count(), 3u);
}

TEST(SetConfigTest, InvalidTotalMemoryBelowQueryBudgetRejected) {
  EngineConfig config;
  config.query_memory_limit_bytes = 1024 * 1024;
  config.total_memory_limit_bytes = 1024;  // smaller than one query's budget
  EXPECT_THROW({ ExecContext engine(config); }, ExecutionError);
}

// ---- the stress test: one SqlContext, many driver threads ------------------

TEST(ConcurrencyStressTest, MixedQueriesStayIsolatedOnOneSqlContext) {
  // >= 4 driver threads x >= 16 queries on ONE SqlContext, interleaving
  //   * result queries with per-query expected cardinalities,
  //   * group-bys that spill under the 64 KiB budget,
  //   * queries that time out (per-query QueryOptions timeout), and
  //   * queries cancelled from their on_start hook —
  // asserting that results, failures and profiles never bleed between
  // queries, and that no spill file survives any of it.
  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 4;  // 24 queries total

  std::string scratch = UniqueScratchDir("stress");
  std::filesystem::remove_all(scratch);
  EngineConfig config;
  config.num_threads = 4;
  config.default_parallelism = 4;
  config.spill_dir = scratch;
  config.query_memory_limit_bytes = 64 * 1024;
  config.max_concurrent_queries = 4;
  SqlContext ctx(config);

  // "t": 20000 rows over 2000 string keys — the spilling group-by workload.
  auto keyed = StructType::Make({Field("k", DataType::String(), false),
                                 Field("v", DataType::Int32(), false)});
  std::vector<Row> keyed_rows;
  keyed_rows.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    keyed_rows.push_back(Row({Value("key_" + std::to_string(i % 2000)),
                              Value(int32_t(i % 1000))}));
  }
  ctx.CreateDataFrame(keyed, std::move(keyed_rows)).RegisterTempTable("t");

  // "n": x = 0..999 — cheap per-query-distinct count workload.
  auto numbers = StructType::Make({Field("x", DataType::Int32(), false)});
  std::vector<Row> number_rows;
  number_rows.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    number_rows.push_back(Row({Value(int32_t(i))}));
  }
  ctx.CreateDataFrame(numbers, std::move(number_rows)).RegisterTempTable("n");

  std::atomic<int> failures{0};
  std::atomic<int> spilling_ok{0};
  std::vector<std::string> errors(kThreads);
  std::vector<std::set<uint64_t>> seen_ids(kThreads);

  auto worker = [&](int tid) {
    try {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        int slot = tid * kQueriesPerThread + q;
        QueryOptions opts;
        opts.on_start = [&, tid](QueryContext& query) {
          // Distinct ids across every query this thread starts proves each
          // Execute got its own context even under admission contention.
          EXPECT_TRUE(seen_ids[tid].insert(query.query_id()).second);
        };
        switch (slot % 4) {
          case 0: {
            // Per-query-distinct result: count(x < threshold) == threshold.
            int threshold = 100 + (slot * 37) % 900;
            DataFrame df = ctx.Sql("SELECT count(*) AS c FROM n WHERE x < " +
                                   std::to_string(threshold));
            std::vector<Row> rows = ctx.Execute(df.plan(), opts).Collect();
            ASSERT_EQ(rows.size(), 1u);
            EXPECT_EQ(rows[0].GetInt64(0), threshold) << "slot " << slot;
            break;
          }
          case 1: {
            // Spills under the 64 KiB budget; 2000 groups of exactly 10.
            DataFrame df =
                ctx.Sql("SELECT k, count(*) AS c FROM t GROUP BY k");
            std::vector<Row> rows = ctx.Execute(df.plan(), opts).Collect();
            EXPECT_EQ(rows.size(), 2000u) << "slot " << slot;
            int64_t total = 0;
            for (const Row& r : rows) total += r.GetInt64(1);
            EXPECT_EQ(total, 20000) << "slot " << slot;
            spilling_ok.fetch_add(1);
            break;
          }
          case 2: {
            // Times out instantly — must not take any sibling down with it.
            opts.timeout_ms = 0;
            DataFrame df =
                ctx.Sql("SELECT k, count(*) AS c FROM t GROUP BY k");
            try {
              ctx.Execute(df.plan(), opts);
              ADD_FAILURE() << "slot " << slot << ": expected timeout";
            } catch (const ExecutionError& e) {
              EXPECT_NE(std::string(e.what()).find("timed out"),
                        std::string::npos)
                  << e.what();
            }
            break;
          }
          case 3: {
            // Cancelled at start with a slot-unique reason; the error must
            // carry exactly this query's reason, nobody else's.
            std::string reason = "stress-abort-" + std::to_string(slot);
            opts.on_start = [&, tid, reason](QueryContext& query) {
              EXPECT_TRUE(seen_ids[tid].insert(query.query_id()).second);
              query.Cancel(reason);
            };
            DataFrame df = ctx.Sql("SELECT sum(v) FROM t");
            try {
              ctx.Execute(df.plan(), opts);
              ADD_FAILURE() << "slot " << slot << ": expected cancellation";
            } catch (const ExecutionError& e) {
              EXPECT_EQ(std::string(e.what()),
                        "query cancelled: " + reason);
            }
            break;
          }
        }
      }
    } catch (const std::exception& e) {
      failures.fetch_add(1);
      errors[tid] = e.what();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(spilling_ok.load(), kThreads * kQueriesPerThread / 4);
  // Every query had its own context: no id was ever seen twice anywhere.
  std::set<uint64_t> all_ids;
  size_t id_count = 0;
  for (const auto& ids : seen_ids) {
    id_count += ids.size();
    all_ids.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(all_ids.size(), id_count);
  EXPECT_EQ(id_count, size_t{kThreads * kQueriesPerThread});

  EXPECT_EQ(ctx.exec().active_queries(), 0u);
  EXPECT_EQ(FilesIn(scratch), 0u) << "spill files leaked across queries";
  EXPECT_GT(ctx.exec().metrics().Get("memory.spill_bytes"), 0);

  // The engine is fully usable afterwards.
  EXPECT_EQ(ctx.Sql("SELECT count(*) FROM t").Collect()[0].GetInt64(0), 20000);
  std::filesystem::remove_all(scratch);
}

// ---- engine-wide memory pool across concurrent queries ---------------------

TEST(TotalMemoryLimitTest, ConcurrentQueriesShareTheEnginePool) {
  // Two queries, each individually within its per-query cap, must together
  // respect the engine pool: with a 64 KiB total, two queries cannot both
  // hold 48 KiB — the second grow is denied (-> it spills), which we
  // observe directly through reservations on each query's MemoryManager.
  EngineConfig config;
  config.num_threads = 2;
  config.query_memory_limit_bytes = 48 * 1024;
  config.total_memory_limit_bytes = 64 * 1024;
  ExecContext engine(config);

  QueryContextPtr q1 = engine.BeginQuery();
  QueryContextPtr q2 = engine.BeginQuery();
  MemoryReservation r1 = q1->memory().CreateReservation();
  MemoryReservation r2 = q2->memory().CreateReservation();

  EXPECT_TRUE(r1.TryGrow(48 * 1024));   // q1 takes its full per-query cap
  EXPECT_FALSE(r2.TryGrow(48 * 1024));  // pool has only 16 KiB left
  EXPECT_TRUE(r2.TryGrow(16 * 1024));   // the remainder is still grantable
  EXPECT_EQ(engine.engine_memory().reserved_bytes(), 64 * 1024);

  // Releasing q1 returns its bytes to the pool for q2.
  r1.Release();
  EXPECT_EQ(engine.engine_memory().reserved_bytes(), 16 * 1024);
  EXPECT_TRUE(r2.TryGrow(32 * 1024));

  r2.Release();
  q1->Finish("ok");
  q2->Finish("ok");
  EXPECT_EQ(engine.engine_memory().reserved_bytes(), 0);
}

}  // namespace
}  // namespace ssql
