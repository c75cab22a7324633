// ring_stress_test.cpp — concurrency torture for the lock-free SPSC
// pipe transport (SpscRing). Everything here runs with metrics enabled
// (conservation_env.cpp rides in this binary), so beyond the per-test
// assertions the global teardown proves no element was ever lost or
// double-counted across the whole process — the invariant a lock-free
// transport is most likely to break and sanitizers are blind to.
//
// Named SpscRingStress.* on purpose: CI's flake-hunt and asan repeat
// passes select the new lock-free paths with -R 'SpscRing|Steal'.
#include "concur/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "concur/cancel.hpp"
#include "concur/fault_injection.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

using namespace std::chrono_literals;

/// One producer thread, one consumer thread, mixed scalar/bulk ops
/// chosen by a deterministic per-index pattern. Returns the consumer's
/// element count; the caller asserts totals, the global Environment
/// asserts conservation.
std::int64_t runTorture(std::size_t capacity, int items, int seedSalt) {
  SpscRing<std::int64_t> ring(capacity);
  const std::uint64_t seed = stress::seed() + static_cast<std::uint64_t>(seedSalt);
  std::thread producer([&] {
    std::int64_t next = 0;
    while (next < items) {
      // Pattern: mostly bulk flushes of varying size, scalar puts mixed in.
      const auto pick = (seed + static_cast<std::uint64_t>(next)) % 7;
      if (pick == 0) {
        ASSERT_TRUE(ring.put(next));
        ++next;
      } else {
        std::vector<std::int64_t> batch;
        const std::int64_t n = std::min<std::int64_t>(1 + static_cast<std::int64_t>(pick) * 3,
                                                      items - next);
        for (std::int64_t i = 0; i < n; ++i) batch.push_back(next + i);
        next += n;
        while (!batch.empty() && ring.putAll(batch) > 0) {
        }
        ASSERT_TRUE(batch.empty());
      }
    }
    ring.close();
  });
  std::int64_t expect = 0;
  for (;;) {
    const auto pick = (seed ^ static_cast<std::uint64_t>(expect)) % 5;
    if (pick == 0) {
      auto v = ring.take();
      if (!v) break;
      EXPECT_EQ(*v, expect++);
    } else {
      const auto got = ring.takeUpTo(1 + pick * 7);
      if (got.empty()) break;
      for (auto v : got) EXPECT_EQ(v, expect++);
    }
  }
  producer.join();
  return expect;
}

TEST(SpscRingStress, ConservationTortureMixedOps) {
  const int items = 30000 * stress::scale();
  EXPECT_EQ(runTorture(/*capacity=*/16, items, 1), items);
}

TEST(SpscRingStress, ConservationTortureTinyRing) {
  // Capacity 1 maximizes park/wake churn: every element is a rendezvous.
  const int items = 5000 * stress::scale();
  EXPECT_EQ(runTorture(/*capacity=*/1, items, 2), items);
}

TEST(SpscRingStress, ConservationTortureWideRing) {
  const int items = 30000 * stress::scale();
  EXPECT_EQ(runTorture(/*capacity=*/1024, items, 3), items);
}

TEST(SpscRingStress, CancelVsParkRace) {
  // The classic lost-wakeup shape: a consumer parking on an empty ring
  // races a cancel from another thread. The register-then-recheck
  // protocol must never strand the consumer, whichever side wins.
  const int rounds = 300 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    SpscRing<std::int64_t> ring(2);
    StopSource source;
    std::atomic<int> status{-1};
    std::thread consumer([&] {
      std::vector<std::int64_t> out;
      status = static_cast<int>(ring.takeUpToFor(out, 1, source.token(), {}));
    });
    // Vary the cancel's timing across rounds to sample interleavings on
    // both sides of the park.
    if (r % 3 == 1) std::this_thread::yield();
    if (r % 3 == 2) std::this_thread::sleep_for(std::chrono::microseconds(200));
    source.requestStop();
    consumer.join();
    EXPECT_EQ(status.load(), static_cast<int>(QueueOpStatus::kCancelled));
  }
}

TEST(SpscRingStress, CancelVsParkRaceProducerSide) {
  const int rounds = 300 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    SpscRing<std::int64_t> ring(1);
    ASSERT_TRUE(ring.tryPut(0));
    StopSource source;
    std::atomic<int> status{-1};
    std::thread producer([&] {
      std::vector<std::int64_t> one{1};
      std::size_t accepted = 0;
      status = static_cast<int>(ring.putAllFor(one, accepted, source.token(), {}));
    });
    if (r % 3 == 1) std::this_thread::yield();
    if (r % 3 == 2) std::this_thread::sleep_for(std::chrono::microseconds(200));
    source.requestStop();
    producer.join();
    EXPECT_EQ(status.load(), static_cast<int>(QueueOpStatus::kCancelled));
  }
}

TEST(SpscRingStress, CloseWhileFullNeverLosesTheDrain) {
  // close() racing a full ring + parked producer: the consumer must see
  // every element accepted before the close, then end-of-stream; the
  // producer must unblock promptly.
  const int rounds = 200 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    SpscRing<std::int64_t> ring(4);
    std::atomic<std::int64_t> accepted{0};
    std::thread producer([&] {
      std::int64_t n = 0;
      while (ring.put(n)) {
        accepted.fetch_add(1, std::memory_order_relaxed);
        ++n;
      }
    });
    std::thread closer([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 + (r % 7) * 37));
      ring.close();
    });
    producer.join();
    closer.join();
    // Drain everything that was accepted; order must be intact.
    std::int64_t expect = 0;
    while (auto v = ring.take()) EXPECT_EQ(*v, expect++);
    EXPECT_EQ(expect, accepted.load());
  }
}

TEST(SpscRingStress, TimedOpsUnderLoad) {
  // Deadlines expire and succeed interleaved with real traffic; a
  // kTimedOut must never consume or publish an element.
  const int items = 4000 * stress::scale();
  SpscRing<std::int64_t> ring(8);
  std::thread producer([&] {
    std::int64_t next = 0;
    while (next < items) {
      std::vector<std::int64_t> one{next};
      std::size_t accepted = 0;
      const auto status = ring.putAllFor(
          one, accepted, CancelToken{},
          QueueDeadline{std::chrono::steady_clock::now() + std::chrono::microseconds(200)});
      if (status == QueueOpStatus::kOk) {
        ++next;
      } else {
        ASSERT_EQ(status, QueueOpStatus::kTimedOut);
        ASSERT_EQ(accepted, 0u) << "a timed-out put published";
      }
    }
    ring.close();
  });
  std::int64_t expect = 0;
  for (;;) {
    std::vector<std::int64_t> out;
    const auto status = ring.takeUpToFor(
        out, 1, CancelToken{},
        QueueDeadline{std::chrono::steady_clock::now() + std::chrono::microseconds(300)});
    if (status == QueueOpStatus::kOk) {
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out.front(), expect++);
    } else if (status == QueueOpStatus::kClosed) {
      break;
    } else {
      ASSERT_EQ(status, QueueOpStatus::kTimedOut);
    }
  }
  producer.join();
  EXPECT_EQ(expect, items);
}

TEST(SpscRingStress, AbandonedElementsAreAccountedAsDropped) {
  // A cancelled consumer walks away from a part-full ring; the ring's
  // destructor must book the remainder as dropped_on_close or the global
  // conservation check at teardown fails.
  const int rounds = 100 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    SpscRing<std::int64_t> ring(16);
    for (std::int64_t i = 0; i < 10; ++i) ASSERT_TRUE(ring.put(i));
    for (std::int64_t i = 0; i < r % 10; ++i) ASSERT_TRUE(ring.take().has_value());
    ring.close();
    // Destructor runs here with 10 - r%10 elements still buffered.
  }
}

TEST(SpscRingStress, FaultInjectionShakesTheParkProtocol) {
  if (!testing::FaultInjector::compiledIn()) {
    GTEST_SKIP() << "fault hooks not compiled in (CONGEN_FAULT_INJECTION off)";
  }
  // Delay-only policy at every queue site: stretches the windows between
  // load-seq / set-parked / recheck / wait so the fence pairing is
  // actually exercised rather than won by timing luck. QueuePut/PutAll
  // are failure-capable sites, so the producer also absorbs thrown
  // faults — a failed put publishes nothing, which conservation checks.
  testing::SitePolicy policy;
  policy.delayPerMille = 80;
  policy.maxDelayMicros = 300;
  policy.failPerMille = 20;
  testing::ScopedFaultInjection arm(stress::seed(), policy);
  const int items = 3000 * stress::scale();
  SpscRing<std::int64_t> ring(4);
  std::thread producer([&] {
    std::int64_t next = 0;
    while (next < items) {
      try {
        if (!ring.put(next)) break;
        ++next;
      } catch (const testing::InjectedFault&) {
        // Injected before the publish: retry the same element.
      }
    }
    ring.close();
  });
  std::int64_t expect = 0;
  for (;;) {
    try {
      auto v = ring.take();
      if (!v) break;
      EXPECT_EQ(*v, expect++);
    } catch (const testing::InjectedFault&) {
    }
  }
  producer.join();
  EXPECT_EQ(expect, items);
}

// ---------------------------------------------------------------------
// Channel-contract torture: conservation, close-vs-put races, drain
// after close. A ring has one producer and one consumer, so
// many-to-many traffic is one ring per producer, each drained by one
// consumer.
// ---------------------------------------------------------------------

/// P producers, each with its own ring, drained by C consumers (ring r
/// belongs to consumer r % C); asserts exact once-delivery.
void fanTorture(int producers, int consumers, int perProducer, std::size_t capacity) {
  std::vector<std::unique_ptr<SpscRing<int>>> rings;
  for (int p = 0; p < producers; ++p) rings.push_back(std::make_unique<SpscRing<int>>(capacity));
  std::mutex gotMutex;
  std::vector<int> got;

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto& ring = *rings[static_cast<std::size_t>(p)];
      for (int i = 0; i < perProducer; ++i) ASSERT_TRUE(ring.put(p * perProducer + i));
      ring.close();
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      std::vector<int> local;
      for (int r = c; r < producers; r += consumers) {
        while (auto v = rings[static_cast<std::size_t>(r)]->take()) local.push_back(*v);
      }
      std::lock_guard lock(gotMutex);
      got.insert(got.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(producers * perProducer));
  std::sort(got.begin(), got.end());
  for (int i = 0; i < producers * perProducer; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i) << "element lost or duplicated";
  }
}

TEST(QueueStress, ManyToManyBounded) { fanTorture(4, 4, 1000 * stress::scale(), 8); }

TEST(QueueStress, ManyToManyMailbox) {
  // Capacity 1: every transfer is a full rendezvous, so both sides of
  // every ring park and wake on each element.
  fanTorture(4, 4, 250 * stress::scale(), 1);
}

TEST(QueueStress, CloseVsPutRace) {
  // A producer hammers put() while a third thread slams the door at a
  // random point. Invariant: elements taken + elements left buffered ==
  // puts that reported success; nothing is lost, nothing is duplicated.
  // (A put overlapping the close may publish after the consumer has
  // seen closed-and-empty; that element stays buffered, and a dying ring
  // books it as dropped_on_close.)
  const int rounds = 50 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    SpscRing<int> q(4);
    std::atomic<int> putOk{0};
    std::atomic<int> taken{0};
    std::thread producer([&] {
      for (int i = 0; i < 600; ++i) {
        if (!q.put(i)) return;  // closed under us — stop
        putOk.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::thread consumer([&] {
      while (q.take()) taken.fetch_add(1, std::memory_order_relaxed);
    });
    std::thread closer([&] {
      // Close at a slightly different moment each round.
      std::this_thread::sleep_for(std::chrono::microseconds(round * 17 % 400));
      q.close();
    });
    producer.join();
    consumer.join();
    closer.join();
    int left = 0;
    while (q.take()) ++left;
    EXPECT_EQ(taken.load() + left, putOk.load())
        << "round " << round << " seed " << stress::seed();
  }
}

TEST(QueueStress, DrainAfterCloseDeliversEverythingBuffered) {
  // Close with a full buffer and a concurrent consumer: every buffered
  // element must still come out exactly once (close is a poison pill,
  // not a discard).
  const int rounds = 50 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    constexpr int kElems = 500;
    SpscRing<int> q(kElems);
    for (int i = 0; i < kElems; ++i) ASSERT_TRUE(q.put(i));
    std::atomic<int> taken{0};
    std::thread consumer([&] {
      // Drain races the close below; every buffered element must come
      // out before the poison pill is observed.
      while (q.take()) taken.fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(round * 13 % 300));
    q.close();
    consumer.join();
    EXPECT_EQ(taken.load(), kElems);
  }
}

TEST(QueueStress, CloseRacesCloseIdempotently) {
  const int rounds = 100 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    SpscRing<int> q(2);
    q.put(1);
    stress::onThreads(4, [&](int) { q.close(); });
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.take(), 1);
    EXPECT_FALSE(q.take().has_value());
  }
}

TEST(QueueStress, TryOpsConserveUnderContention) {
  // Hammering through the non-blocking API only: successful tryPuts ==
  // successful tryTakes + what is left buffered.
  SpscRing<int> q(16);
  std::atomic<int> putOk{0};
  std::atomic<int> takeOk{0};
  std::atomic<bool> stop{false};
  const int attempts = 60000 * stress::scale();

  std::thread consumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (q.tryTake()) takeOk.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < attempts; ++i) {
    if (q.tryPut(i)) putOk.fetch_add(1, std::memory_order_relaxed);
  }
  stop = true;
  consumer.join();

  int drained = 0;
  while (q.tryTake()) ++drained;
  EXPECT_EQ(putOk.load(), takeOk.load() + drained) << "try-API conservation";
}

TEST(QueueStress, MixedBlockingAndTryTraffic) {
  // Both sides alternate between the blocking and the non-blocking API —
  // the mix pipes and schedulers actually produce.
  SpscRing<int> q(4);
  const int elems = 1500 * stress::scale();
  std::atomic<int> delivered{0};

  std::thread producer([&] {
    for (int i = 0; i < elems; ++i) {
      if (i % 2 == 0) {
        EXPECT_TRUE(q.put(i));
      } else {
        while (!q.tryPut(i)) std::this_thread::yield();
      }
    }
    q.close();
  });
  for (int n = 0;; ++n) {
    if (n % 3 == 0) {
      if (q.tryTake()) delivered.fetch_add(1, std::memory_order_relaxed);
    } else if (q.take()) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    } else {
      break;  // closed and drained
    }
  }
  producer.join();
  EXPECT_EQ(delivered.load(), elems);
}

TEST(QueueBulkStress, MixedBulkAndScalarConservationWithFifoPerProducer) {
  // The producer alternates putAll batches with scalar puts; the
  // consumer alternates takeUpTo with scalar takes. The stream must come
  // out complete and in order — takeUpTo may not reorder within a batch
  // or against the scalar traffic.
  const int elems = 2700 * stress::scale();
  SpscRing<int> q(8);

  std::thread producer([&] {
    int next = 0;
    while (next < elems) {
      const int batchSize = 1 + (next % 7);
      if (next % 3 == 0) {
        std::vector<int> batch;
        for (int i = 0; i < batchSize && next < elems; ++i) batch.push_back(next++);
        const std::size_t want = batch.size();
        ASSERT_EQ(q.putAll(batch), want) << "no putAll may be cut short before close";
        ASSERT_TRUE(batch.empty()) << "accepted elements must be consumed from the batch";
      } else {
        ASSERT_TRUE(q.put(next++));
      }
    }
    q.close();
  });
  int expect = 0;
  for (int n = 0;; ++n) {
    if (n % 2 == 0) {
      const auto chunk = q.takeUpTo(5);
      if (chunk.empty()) break;  // closed and drained
      for (int v : chunk) ASSERT_EQ(v, expect++) << "bulk hand-off reordered the stream";
    } else {
      const auto v = q.take();
      if (!v) break;
      ASSERT_EQ(*v, expect++) << "bulk hand-off reordered the stream";
    }
  }
  producer.join();
  EXPECT_EQ(expect, elems) << "element lost";
}

}  // namespace
}  // namespace congen
