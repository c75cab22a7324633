// fault_stress_test.cpp — the FaultInjector itself, and the concurrency
// layer under injected delays and failures. Compiled-in only under
// CONGEN_FAULT_INJECTION (the tsan / asan-ubsan presets); in a plain
// build every test here skips.
#include "concur/fault_injection.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "../testutil.hpp"
#include "concur/spsc_ring.hpp"
#include "concur/pipe.hpp"
#include "concur/thread_pool.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

using stress::eventually;
using stress::onThreads;
using testing::FaultInjector;
using testing::FaultSite;
using testing::InjectedFault;
using testing::ScopedFaultInjection;
using testing::SitePolicy;

#define REQUIRE_FAULT_HOOKS()                                                \
  if (!FaultInjector::compiledIn()) {                                        \
    GTEST_SKIP() << "built without CONGEN_FAULT_INJECTION — nothing to do";  \
  }

TEST(FaultInjectorStress, DeterministicDecisionStream) {
  REQUIRE_FAULT_HOOKS();
  // Same seed, same single-threaded call sequence → identical decisions.
  auto run = [](std::uint64_t seed) {
    ScopedFaultInjection arm(seed, SitePolicy{/*delayPerMille=*/200, /*maxDelayMicros=*/1,
                                              /*failPerMille=*/100});
    SpscRing<int> q(2000);  // room for every put: only the injector decides
    std::vector<int> failedAt;
    for (int i = 0; i < 2000; ++i) {
      try {
        q.put(i);
      } catch (const InjectedFault&) {
        failedAt.push_back(i);
      }
    }
    auto& inj = FaultInjector::instance();
    return std::tuple{inj.delaysInjected(), inj.failuresInjected(), failedAt};
  };
  const auto a = run(stress::seed());
  const auto b = run(stress::seed());
  EXPECT_EQ(a, b) << "the decision stream must be a pure function of the seed";
  EXPECT_GT(std::get<0>(a), 0u) << "with 2000 draws at 20% some delays must fire";
  EXPECT_GT(std::get<1>(a), 0u);
  const auto c = run(stress::seed() + 1);
  EXPECT_NE(std::get<2>(a), std::get<2>(c)) << "a different seed takes a different path";
}

TEST(FaultInjectorStress, HitCountersCoverAllInstrumentedSites) {
  REQUIRE_FAULT_HOOKS();
  ScopedFaultInjection arm(stress::seed(), SitePolicy{});  // observe only
  ThreadPool pool;
  auto& inj = FaultInjector::instance();
  {
    // The scalar ops belong to raw rings (the native pipeline's put/take)...
    SpscRing<int> ring(1);
    ASSERT_TRUE(ring.put(1));
    ASSERT_TRUE(ring.take().has_value());
    // ...while every pipe runs the batched hand-off (putAll/takeUpTo). A
    // capacity-1 mailbox has hand-off cap 1: each of its 5 values is a
    // flush of its own, published before the consumer can take it.
    auto mailbox = Pipe::create([] { return test::range(1, 5); }, /*capacity=*/1, pool);
    while (mailbox->activate()) {
    }
    EXPECT_GE(inj.hits(FaultSite::PipeBatchFlush), 5u) << "one flush per mailbox value";
    auto batched = Pipe::create([] { return test::range(1, 50); }, /*capacity=*/8, pool);
    while (batched->activate()) {
    }
  }
  ASSERT_TRUE(eventually([&] { return pool.tasksCompleted() == 2u; }));
  EXPECT_GT(inj.hits(FaultSite::QueuePut), 0u);
  EXPECT_GT(inj.hits(FaultSite::QueueTake), 0u);
  EXPECT_GT(inj.hits(FaultSite::QueuePutAll), 0u);
  EXPECT_GT(inj.hits(FaultSite::QueueTakeUpTo), 0u);
  EXPECT_GT(inj.hits(FaultSite::PipeBatchFlush), 0u);
  EXPECT_GT(inj.hits(FaultSite::QueueClose), 0u);
  EXPECT_GT(inj.hits(FaultSite::PoolSubmit), 0u);
  EXPECT_GT(inj.hits(FaultSite::PoolTaskRun), 0u);
}

TEST(FaultStress, QueueConservationUnderDelays) {
  REQUIRE_FAULT_HOOKS();
  // Delays at every boundary shake the schedule; the conservation
  // invariant must hold regardless.
  ScopedFaultInjection arm(stress::seed(),
                           SitePolicy{/*delayPerMille=*/150, /*maxDelayMicros=*/200,
                                      /*failPerMille=*/0});
  SpscRing<int> q(4);
  const int elems = 450 * stress::scale();
  std::atomic<int> taken{0};
  std::thread consumer([&] {
    while (q.take()) taken.fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < elems; ++i) EXPECT_TRUE(q.put(i));
  q.close();
  consumer.join();
  EXPECT_EQ(taken.load(), elems);
}

TEST(FaultStress, PipesSurviveScheduleShaking) {
  REQUIRE_FAULT_HOOKS();
  // Delay-only chaos across the whole layer while pipes stream, refresh,
  // and get abandoned — the lifecycle invariants may not depend on
  // timing luck.
  ScopedFaultInjection arm(stress::seed(),
                           SitePolicy{/*delayPerMille=*/100, /*maxDelayMicros=*/300,
                                      /*failPerMille=*/0});
  ThreadPool pool;
  std::size_t tasks = 0;
  for (int round = 0; round < 15 * stress::scale(); ++round) {
    auto pipe = Pipe::create([] { return test::range(1, 50); }, /*capacity=*/2, pool);
    ++tasks;
    ASSERT_EQ(pipe->activate()->smallInt(), 1);
    if (round % 3 == 0) {
      auto fresh = rcStaticCast<Pipe>(pipe->refreshed());
      ++tasks;
      ASSERT_EQ(fresh->activate()->smallInt(), 1);
    }  // abandoned mid-stream otherwise: drop both
  }
  ASSERT_TRUE(eventually([&] { return pool.tasksCompleted() == tasks; }, 30000))
      << "an abandoned producer outlived its pipe under injected delays";
}

TEST(FaultStress, InjectedSubmitFailureSurfacesAtPipeCreation) {
  REQUIRE_FAULT_HOOKS();
  auto& inj = FaultInjector::instance();
  inj.arm(stress::seed(), SitePolicy{});
  inj.armSite(FaultSite::PoolSubmit,
              SitePolicy{/*delayPerMille=*/0, /*maxDelayMicros=*/0, /*failPerMille=*/1000});
  ThreadPool pool;
  EXPECT_THROW(Pipe::create([] { return test::range(1, 5); }, /*capacity=*/2, pool),
               InjectedFault)
      << "a pool refusing work fails pipe creation loudly, not silently";
  inj.disarm();
  // The pool and layer remain fully usable after the storm.
  auto pipe = Pipe::create([] { return test::range(1, 3); }, /*capacity=*/2, pool);
  EXPECT_EQ(pipe->activate()->smallInt(), 1);
}

TEST(FaultStress, TryPutFailuresDoNotLoseElements) {
  REQUIRE_FAULT_HOOKS();
  auto& inj = FaultInjector::instance();
  inj.arm(stress::seed(), SitePolicy{});
  inj.armSite(FaultSite::QueueTryPut,
              SitePolicy{/*delayPerMille=*/0, /*maxDelayMicros=*/0, /*failPerMille=*/300});
  SpscRing<int> q(2000);
  int ok = 0;
  for (int i = 0; i < 2000; ++i) {
    try {
      if (q.tryPut(i)) ++ok;
    } catch (const InjectedFault&) {
      // Rejected at entry: the element must NOT be enqueued.
    }
  }
  inj.disarm();
  int drained = 0;
  while (q.tryTake()) ++drained;
  EXPECT_EQ(drained, ok) << "an injected tryPut failure half-enqueued an element";
  EXPECT_GT(ok, 0);
  EXPECT_LT(ok, 2000) << "with failPerMille=300 some injections must have fired";
}

TEST(FaultStress, BulkOpsConserveUnderBatchBoundaryDelays) {
  REQUIRE_FAULT_HOOKS();
  // Delays at the three batch-boundary sites shake the hand-off timing
  // between accumulation, flush, and bulk drain; conservation and
  // stream order must not depend on who wins those races.
  auto& inj = FaultInjector::instance();
  inj.arm(stress::seed(), SitePolicy{});
  for (auto site : {FaultSite::QueuePutAll, FaultSite::QueueTakeUpTo, FaultSite::PipeBatchFlush}) {
    inj.armSite(site, SitePolicy{/*delayPerMille=*/300, /*maxDelayMicros=*/200,
                                 /*failPerMille=*/0});
  }
  ThreadPool pool;
  const int kElems = 300 * stress::scale();
  auto pipe = Pipe::create([kElems] { return test::range(1, kElems); }, /*capacity=*/4, pool);
  std::int64_t expect = 1;
  while (auto v = pipe->activate()) EXPECT_EQ(v->requireInt64(), expect++);
  EXPECT_EQ(expect, kElems + 1) << "an element was lost at a delayed batch boundary";
  inj.disarm();
  EXPECT_GT(inj.hits(FaultSite::QueuePutAll), 0u);
  EXPECT_GT(inj.hits(FaultSite::QueueTakeUpTo), 0u);
}

TEST(FaultStress, InjectedPutAllFailureIsAllOrNothing) {
  REQUIRE_FAULT_HOOKS();
  // The QueuePutAll fault point sits at entry: an injected failure must
  // reject the whole batch before any element moves — never a half-
  // published batch.
  auto& inj = FaultInjector::instance();
  inj.arm(stress::seed(), SitePolicy{});
  inj.armSite(FaultSite::QueuePutAll,
              SitePolicy{/*delayPerMille=*/0, /*maxDelayMicros=*/0, /*failPerMille=*/300});
  SpscRing<int> q(1500);  // room for every batch
  std::size_t accepted = 0;
  int attempts = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<int> batch{3 * i, 3 * i + 1, 3 * i + 2};
    try {
      accepted += q.putAll(batch);
      EXPECT_TRUE(batch.empty());
      ++attempts;
    } catch (const InjectedFault&) {
      EXPECT_EQ(batch.size(), 3u) << "an injected putAll failure half-published a batch";
    }
  }
  inj.disarm();
  std::size_t drained = 0;
  while (q.tryTake()) ++drained;
  EXPECT_EQ(drained, accepted) << "bulk-API conservation under injected failures";
  EXPECT_GT(attempts, 0);
  EXPECT_LT(attempts, 500) << "with failPerMille=300 some injections must have fired";
}

TEST(FaultStress, BatchedPipeFlushFailureDeliversAPrefixThenTheError) {
  REQUIRE_FAULT_HOOKS();
  // Inject hard failures into putAll under a batched pipe: the consumer
  // must observe a gapless, duplicate-free prefix of the stream and then
  // the injected error — a lost or reordered batch would break the
  // prefix shape.
  auto& inj = FaultInjector::instance();
  inj.arm(stress::seed(), SitePolicy{});
  inj.armSite(FaultSite::QueuePutAll,
              SitePolicy{/*delayPerMille=*/0, /*maxDelayMicros=*/0, /*failPerMille=*/200});
  ThreadPool pool;
  bool sawError = false;
  std::int64_t expect = 1;
  {
    auto pipe = Pipe::create([] { return test::range(1, 500); }, /*capacity=*/4, pool);
    try {
      while (auto v = pipe->activate()) EXPECT_EQ(v->requireInt64(), expect++);
    } catch (const InjectedFault&) {
      sawError = true;
    }
  }
  inj.disarm();
  if (sawError) {
    EXPECT_LE(expect, 501) << "values past the failed flush leaked through";
  } else {
    EXPECT_EQ(expect, 501) << "no injection fired, so the full stream must arrive";
  }
  // The pool survives the storm and remains usable.
  auto pipe = Pipe::create([] { return test::range(1, 3); }, /*capacity=*/2, pool);
  EXPECT_EQ(pipe->activate()->smallInt(), 1);
}

TEST(FaultStress, MixedDelayAndFailureStormOnPool) {
  REQUIRE_FAULT_HOOKS();
  // Submit under randomized delays AND failures: accepted work always
  // runs, rejected work never does — same contract as the plain pool
  // stress, now with injected chaos on the submit path itself.
  auto& inj = FaultInjector::instance();
  inj.arm(stress::seed(), SitePolicy{/*delayPerMille=*/100, /*maxDelayMicros=*/100,
                                     /*failPerMille=*/0});
  inj.armSite(FaultSite::PoolSubmit,
              SitePolicy{/*delayPerMille=*/100, /*maxDelayMicros=*/100, /*failPerMille=*/200});
  {
    ThreadPool pool;
    std::atomic<int> accepted{0};
    std::atomic<int> ran{0};
    onThreads(4, [&](int) {
      for (int i = 0; i < 50; ++i) {
        try {
          pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const InjectedFault&) {
          // Rejected at the boundary — must be a no-op.
        }
      }
    });
    EXPECT_LT(accepted.load(), 200) << "some submits must have been injected away";
    ASSERT_TRUE(eventually([&] { return ran.load() == accepted.load(); }, 20000));
    pool.shutdown();
    EXPECT_EQ(ran.load(), accepted.load());
  }
  inj.disarm();
}

}  // namespace
}  // namespace congen
