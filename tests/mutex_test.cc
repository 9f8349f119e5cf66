// Copyright 2026 The ONEX Reproduction Authors.
// Tests for the annotated mutex wrappers (util/mutex.h): scoped guards,
// CondVar wait loops, and — when lock-order checking is compiled in
// (sanitizer builds; -DONEX_LOCK_ORDER_CHECKS=1) — the runtime rank
// hierarchy: acquiring out of rank order or recursively must abort
// with a diagnostic naming both locks.

#include "util/mutex.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace onex {
namespace {

TEST(MutexTest, GuardsExcludeEachOther) {
  Mutex mu(LockRank::kLeaf, "test.counter");
  int value = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(mu);
        ++value;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(mu);
  EXPECT_EQ(value, 4000);
}

TEST(MutexTest, CondVarWaitLoopSeesNotifiedPredicate) {
  Mutex mu(LockRank::kLeaf, "test.cv");
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  notifier.join();
  // The wait's unlock/relock must leave the rank bookkeeping intact:
  // a nested acquisition after the wait still works.
  Mutex inner(LockRank::kLeaf, "test.cv.other");
  MutexLock outer(mu);
  (void)inner;
}

TEST(MutexTest, AscendingRanksNest) {
  Mutex outer(LockRank::kCatalog, "test.outer");
  Mutex mid(LockRank::kEngineAppend, "test.mid");
  Mutex inner(LockRank::kMetrics, "test.inner");
  MutexLock a(outer);
  MutexLock b(mid);
  MutexLock c(inner);
  mid.AssertHeld();
  outer.AssertHeld();
}

#if ONEX_LOCK_ORDER_CHECKS

using MutexDeathTest = ::testing::Test;

TEST(MutexDeathTest, RankInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex engine(LockRank::kEngineAppend, "death.engine");
        Mutex catalog(LockRank::kCatalog, "death.catalog");
        MutexLock a(engine);
        MutexLock b(catalog);  // kCatalog < kEngineAppend: inversion.
      },
      "lock-order violation");
}

TEST(MutexDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "death.recursive");
        mu.Lock();
        mu.Lock();
      },
      "recursive acquisition");
}

TEST(MutexDeathTest, AssertHeldAbortsWhenNotHeld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "death.unheld");
        mu.AssertHeld();
      },
      "not held");
}

TEST(MutexTest, SameRankConflictsAcrossDistinctMutexes) {
  // Two kLeaf mutexes may not nest — same rank is not "strictly
  // greater". Documented consequence: give nested locks real ranks.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex first(LockRank::kLeaf, "death.first");
        Mutex second(LockRank::kLeaf, "death.second");
        MutexLock a(first);
        MutexLock b(second);
      },
      "lock-order violation");
}

#endif  // ONEX_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace onex
