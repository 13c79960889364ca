// Tests for the execution engine: TaskPool scheduling/contract behavior
// and the Reporter serialization formats.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/reporter.hpp"
#include "exec/task_pool.hpp"

namespace {

using ndpcr::exec::Reporter;
using ndpcr::exec::RunMeta;
using ndpcr::exec::TaskPool;

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);

  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPool, EmptyAndSingletonRanges) {
  TaskPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(TaskPool, SerialPoolIsAPlainLoop) {
  TaskPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expect(16);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);  // single-thread scheduling is index order
}

TEST(TaskPool, ParallelMapPreservesIndexOrder) {
  TaskPool pool(4);
  const auto out = pool.parallel_map(257, [](std::size_t i) { return 3 * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i);
}

TEST(TaskPool, ExceptionsPropagateToSubmitter) {
  TaskPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("task 37");
                        }),
      std::runtime_error);

  // The pool survives a failed batch and runs the next one normally.
  std::atomic<int> ran{0};
  pool.parallel_for(50, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 50);
}

TEST(TaskPool, ExceptionOnSerialPathPropagatesToo) {
  TaskPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(TaskPool, NestedParallelForRunsInline) {
  // A parallel_for made from inside a task, on another pool or on the
  // pool running the task, is a plain ascending loop on the task's thread;
  // the outer batch still runs every one of its indices.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  for (unsigned threads : {1u, 4u}) {
    for (bool same_pool : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " same_pool=" << same_pool);
      TaskPool outer(threads);
      TaskPool other(threads);
      TaskPool& inner = same_pool ? outer : other;
      std::vector<std::atomic<int>> outer_hits(kOuter);
      std::vector<std::vector<std::size_t>> order(kOuter);
      std::atomic<int> off_thread{0};
      outer.parallel_for(kOuter, [&](std::size_t i) {
        EXPECT_TRUE(TaskPool::in_worker());
        outer_hits[i].fetch_add(1);
        const std::thread::id caller = std::this_thread::get_id();
        inner.parallel_for(kInner, [&](std::size_t j) {
          if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
          order[i].push_back(j);
        });
        EXPECT_TRUE(TaskPool::in_worker());
      });
      EXPECT_FALSE(TaskPool::in_worker());
      EXPECT_EQ(off_thread.load(), 0);
      std::vector<std::size_t> ascending(kInner);
      std::iota(ascending.begin(), ascending.end(), 0u);
      for (std::size_t i = 0; i < kOuter; ++i) {
        EXPECT_EQ(outer_hits[i].load(), 1) << "outer index " << i;
        EXPECT_EQ(order[i], ascending) << "outer index " << i;
      }
    }
  }

  // An exception in a nested body comes out of the outer parallel_for.
  for (unsigned threads : {1u, 4u}) {
    TaskPool outer(threads);
    TaskPool inner(threads);
    std::vector<std::size_t> ran;
    std::mutex ran_m;
    EXPECT_THROW(outer.parallel_for(8,
                                    [&](std::size_t i) {
                                      if (i != 5) return;
                                      inner.parallel_for(4, [&](std::size_t j) {
                                        {
                                          std::lock_guard<std::mutex> lk(ran_m);
                                          ran.push_back(j);
                                        }
                                        if (j == 2) {
                                          throw std::runtime_error("nested");
                                        }
                                      });
                                    }),
                 std::runtime_error)
        << "threads=" << threads;
    // The nested loop stopped at its first throw, like any serial batch.
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_FALSE(TaskPool::in_worker());
    // Both pools survive and run their next batch normally.
    std::atomic<int> after{0};
    outer.parallel_for(8, [&](std::size_t) {
      inner.parallel_for(2, [&](std::size_t) { after.fetch_add(1); });
    });
    EXPECT_EQ(after.load(), 16);
  }
}

TEST(TaskPool, OneThreadPoolIsSharedByConcurrentCallers) {
  // A pool without workers keeps no batch state: threads that share one
  // each run their own batch inline, in order, untouched by the others.
  TaskPool serial(1);
  constexpr std::size_t kCallers = 3;
  std::vector<std::vector<std::size_t>> order(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 50; ++round) {
        order[c].clear();
        serial.parallel_for(64, [&](std::size_t i) { order[c].push_back(i); });
      }
    });
  }
  for (auto& t : callers) t.join();
  std::vector<std::size_t> ascending(64);
  std::iota(ascending.begin(), ascending.end(), 0u);
  for (const auto& o : order) EXPECT_EQ(o, ascending);
}

TEST(TaskPool, InWorkerFalseOutsideBatches) {
  EXPECT_FALSE(TaskPool::in_worker());
}

TEST(SubSeed, DistinctAcrossIndicesAndAdjacentBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 2ull, 42ull, ~0ull}) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      seen.insert(ndpcr::exec::sub_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 5u * 64u);  // no collisions across the grid
  // Deterministic: same inputs, same stream.
  EXPECT_EQ(ndpcr::exec::sub_seed(7, 3), ndpcr::exec::sub_seed(7, 3));
}

Reporter make_reporter() {
  RunMeta meta;
  meta.bench = "unit_bench";
  meta.seed = 42;
  meta.trials = 8;
  meta.threads = 2;
  meta.config = "alpha=1,beta=2";
  Reporter rep(meta);
  rep.add_section("First", {"k", "v"});
  rep.add_row({"a", "1"});
  rep.add_row({"b, with comma", "2"});
  rep.add_section("Second", {"only"});
  rep.add_row({"quote \" inside"});
  rep.set_wall_seconds(0.25);
  return rep;
}

TEST(Reporter, AddRowWithoutSectionThrows) {
  Reporter rep(RunMeta{});
  EXPECT_THROW(rep.add_row({"x"}), std::logic_error);
}

TEST(Reporter, ConfigHashIsStableAndConfigSensitive) {
  RunMeta a;
  a.config = "alpha=1";
  RunMeta b;
  b.config = "alpha=2";
  const auto ha = Reporter(a).config_hash();
  EXPECT_EQ(ha.size(), 8u);
  EXPECT_EQ(ha, Reporter(a).config_hash());
  EXPECT_NE(ha, Reporter(b).config_hash());
}

TEST(Reporter, AsciiContainsSectionsAndCells) {
  const auto text = make_reporter().ascii();
  EXPECT_NE(text.find("First"), std::string::npos);
  EXPECT_NE(text.find("Second"), std::string::npos);
  EXPECT_NE(text.find("b, with comma"), std::string::npos);
}

TEST(Reporter, CsvHasMetadataSectionsAndQuoting) {
  const auto csv = make_reporter().csv();
  EXPECT_NE(csv.find("# bench=unit_bench"), std::string::npos);
  EXPECT_NE(csv.find("seed=42"), std::string::npos);
  EXPECT_NE(csv.find("trials=8"), std::string::npos);
  EXPECT_NE(csv.find("threads=2"), std::string::npos);
  EXPECT_NE(csv.find("# section: First"), std::string::npos);
  EXPECT_NE(csv.find("# section: Second"), std::string::npos);
  EXPECT_NE(csv.find("k,v"), std::string::npos);
  // RFC 4180: the comma-bearing cell must be quoted, the quote doubled.
  EXPECT_NE(csv.find("\"b, with comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote \"\" inside\""), std::string::npos);
}

TEST(Reporter, JsonEscapesAndRoundTripsStructure) {
  const auto json = make_reporter().json();
  EXPECT_NE(json.find("\"bench\":\"unit_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"quote \\\" inside\""), std::string::npos);
  EXPECT_NE(json.find("\"sections\""), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness check.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Reporter, WriteJsonSelectsBySuffix) {
  const auto rep = make_reporter();
  const std::string dir = ::testing::TempDir();
  const std::string jpath = dir + "/rep_test.json";
  const std::string cpath = dir + "/rep_test.csv";
  rep.write(jpath);
  rep.write(cpath);
  auto slurp = [](const std::string& p) {
    FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string s;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) s.append(buf, got);
    std::fclose(f);
    return s;
  };
  EXPECT_EQ(slurp(jpath), rep.json());
  EXPECT_EQ(slurp(cpath), rep.csv());
}

}  // namespace
