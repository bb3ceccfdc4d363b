// Concurrency harness for the work-stealing scheduler: randomized-DAG stress,
// priority ordering, wait_idle() completeness, nested submission and
// nested parallel_for. Designed to run under BLR_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace blr;

/// A randomized task DAG: node i depends on a few predecessors with smaller
/// index, tasks decrement successor counters and submit the ones that drain
/// — the same protocol the numeric factorization uses.
struct RandomDag {
  explicit RandomDag(index_t n, std::uint64_t seed) : succs(n), deps(n) {
    Prng rng(seed);
    for (index_t i = 1; i < n; ++i) {
      const auto npred = static_cast<index_t>(rng.below(4));  // 0..3 predecessors
      for (index_t p = 0; p < npred; ++p) {
        const auto pred = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(i)));
        succs[static_cast<std::size_t>(pred)].push_back(i);
        deps[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  std::vector<std::vector<index_t>> succs;
  std::vector<std::atomic<int>> deps;
};

TEST(SchedulerSweep, RandomizedDagRunsEveryTaskExactlyOnce) {
  for (const int threads : {1, 2, 4, 8, 16}) {
    for (const std::uint64_t seed : {7ull, 1234ull, 987654321ull}) {
      const index_t n = 400;
      RandomDag dag(n, seed);
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
      std::atomic<index_t> total{0};

      ThreadPool pool(threads);
      ASSERT_EQ(pool.size(), threads);
      // One std::function per node, self-submitting its drained successors.
      std::function<void(index_t)> run_node = [&](index_t i) {
        runs[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
        for (const index_t s : dag.succs[static_cast<std::size_t>(i)]) {
          if (dag.deps[static_cast<std::size_t>(s)].fetch_sub(
                  1, std::memory_order_acq_rel) == 1) {
            pool.submit([&, s] { run_node(s); }, /*priority=*/s);
          }
        }
      };
      // Snapshot the initially-ready set before submitting anything: once a
      // root runs it may drain a successor to deps==0, and re-scanning live
      // counters would double-submit that node (same hazard the numeric
      // factorization guards against).
      std::vector<index_t> roots;
      for (index_t i = 0; i < n; ++i) {
        if (dag.deps[static_cast<std::size_t>(i)].load(std::memory_order_relaxed) == 0) {
          roots.push_back(i);
        }
      }
      for (const index_t i : roots) {
        pool.submit([&, i] { run_node(i); }, /*priority=*/i);
      }
      pool.wait_idle();

      // wait_idle() must not have returned before the transitive closure ran.
      EXPECT_EQ(total.load(), n) << "threads=" << threads << " seed=" << seed;
      for (index_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
            << "node " << i << " threads=" << threads << " seed=" << seed;
      }
      const auto stats = pool.total_stats();
      EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(n));
    }
  }
}

TEST(SchedulerSweep, TasksSubmittedFromRunningTasksComplete) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  constexpr int kDepth = 64;
  std::function<void(int)> chain = [&](int d) {
    done.fetch_add(1, std::memory_order_relaxed);
    if (d + 1 < kDepth) pool.submit([&, d] { chain(d + 1); });
  };
  pool.submit([&] { chain(0); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), kDepth);
}

TEST(SchedulerSweep, WaitIdleNeverReturnsEarly) {
  Prng rng(42);
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    std::atomic<int> live{0};
    std::atomic<bool> observed_live_after_wait{false};
    const int ntasks = 16 + static_cast<int>(rng.below(48));
    for (int t = 0; t < ntasks; ++t) {
      pool.submit([&] {
        live.fetch_add(1, std::memory_order_acq_rel);
        // A second-generation task keeps the pool busy past the first wave.
        pool.submit([&] { live.fetch_sub(1, std::memory_order_acq_rel); });
      });
    }
    pool.wait_idle();
    if (live.load(std::memory_order_acquire) != 0) observed_live_after_wait = true;
    EXPECT_FALSE(observed_live_after_wait.load()) << "round " << round;
  }
}

TEST(SchedulerSweep, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SchedulerSweep, NestedParallelForInsideTaskCompletes) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(256);
  std::atomic<bool> inner_done{false};
  pool.submit([&] {
    // parallel_for from inside a running task must not deadlock, even on a
    // pool whose other workers are busy or asleep.
    pool.parallel_for(256, [&](index_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    inner_done.store(true, std::memory_order_release);
  });
  pool.wait_idle();
  EXPECT_TRUE(inner_done.load(std::memory_order_acquire));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Priority semantics of the work-stealing scheduler: with a single gated
// worker, queued injected tasks must run in priority order, and a chain
// extended from inside a task (local LIFO push) must outrun equally-queued
// low-priority leaves — the chain-vs-leaves shape of the elimination tree's
// critical path.
TEST(WorkStealingPriority, ChainRunsBeforeLeavesOnSingleWorker) {
  ThreadPool pool(1);

  std::mutex m;
  std::condition_variable cv;
  bool released = false;

  std::atomic<int> order{0};
  constexpr int kLeaves = 24;
  constexpr int kChain = 8;
  std::vector<int> leaf_pos(kLeaves, -1);
  std::vector<int> chain_pos(kChain, -1);

  // Gate: occupies the only worker while the queue fills.
  pool.submit(
      [&] {
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return released; });
      },
      /*priority=*/1 << 20);
  for (int l = 0; l < kLeaves; ++l) {
    pool.submit([&, l] { leaf_pos[static_cast<std::size_t>(l)] = order.fetch_add(1); },
                /*priority=*/0);
  }
  std::function<void(int)> chain = [&](int d) {
    chain_pos[static_cast<std::size_t>(d)] = order.fetch_add(1);
    if (d + 1 < kChain) pool.submit([&, d] { chain(d + 1); }, /*priority=*/1000);
  };
  pool.submit([&] { chain(0); }, /*priority=*/1000);

  {
    std::lock_guard lock(m);
    released = true;
  }
  cv.notify_all();
  pool.wait_idle();

  // The whole chain (head picked by priority, links by LIFO locality) must
  // finish before any priority-0 leaf starts.
  for (const int c : chain_pos) {
    ASSERT_GE(c, 0);
    for (const int l : leaf_pos) {
      ASSERT_GE(l, 0);
      EXPECT_LT(c, l);
    }
  }
}

TEST(WorkStealingPriority, EqualPrioritiesKeepSubmissionOrder) {
  ThreadPool pool(1);
  std::mutex m;
  std::condition_variable cv;
  bool released = false;
  pool.submit([&] {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return released; });
  });
  std::vector<int> sequence;
  for (int i = 0; i < 16; ++i) {
    pool.submit([&sequence, i] { sequence.push_back(i); }, /*priority=*/5);
  }
  {
    std::lock_guard lock(m);
    released = true;
  }
  cv.notify_all();
  pool.wait_idle();
  ASSERT_EQ(sequence.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sequence[static_cast<std::size_t>(i)], i);
}

TEST(WorkStealingStats, StealsHappenAndResetWorks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  // Submit a burst from outside, then fan out from inside so local deques
  // fill and idle workers must steal.
  for (int t = 0; t < 8; ++t) {
    pool.submit([&] {
      for (int c = 0; c < 32; ++c) {
        pool.submit([&] {
          volatile double x = 1.0;
          for (int i = 0; i < 2000; ++i) x = x * 1.0000001 + 1e-9;
          (void)x;
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8 * 32 + 8);
  const auto per_worker = pool.worker_stats();
  ASSERT_EQ(per_worker.size(), 4u);
  const auto total = pool.total_stats();
  EXPECT_EQ(total.executed, static_cast<std::uint64_t>(8 * 32 + 8));
  pool.reset_stats();
  EXPECT_EQ(pool.total_stats().executed, 0u);
  EXPECT_EQ(pool.total_stats().steals, 0u);
}

} // namespace
