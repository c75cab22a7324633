// cancel_test.cpp — structured cancellation, deadlines, and failure
// containment (cancel.hpp and the pipe layer; the ring's *For family is
// pinned in spsc_ring_test.cpp).
#include "concur/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "../testutil.hpp"
#include "concur/pipe.hpp"
#include "par/pipeline.hpp"
#include "runtime/error.hpp"

namespace congen {
namespace {

using namespace std::chrono_literals;

/// Generator yielding 1..n, then throwing the given Icon error.
GenPtr throwingAfter(int n, int errNumber) {
  return CallbackGen::create([n, errNumber]() -> CallbackGen::Puller {
    int i = 0;
    return [i, n, errNumber]() mutable -> std::optional<Value> {
      if (i >= n) throw IconError(errNumber, "synthetic");
      return Value::integer(++i);
    };
  });
}

/// Infinite integer supply.
GenPtr infinite() {
  return CallbackGen::create([]() -> CallbackGen::Puller {
    std::int64_t i = 0;
    return [i]() mutable -> std::optional<Value> { return Value::integer(++i); };
  });
}

// ---------------------------------------------------------------------
// Token / source / callback semantics
// ---------------------------------------------------------------------

TEST(CancelToken, DetachedTokenNeverCancels) {
  CancelToken t;
  EXPECT_FALSE(t.canBeCancelled());
  EXPECT_FALSE(t.cancelled());
}

TEST(StopSource, RequestStopIsIdempotentAndObserved) {
  StopSource s;
  auto t = s.token();
  EXPECT_TRUE(t.canBeCancelled());
  EXPECT_FALSE(t.cancelled());
  EXPECT_TRUE(s.requestStop()) << "first call performs the transition";
  EXPECT_FALSE(s.requestStop()) << "second call is a no-op";
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(s.stopRequested());
}

TEST(CancelCallback, InvokedOnRequestStop) {
  StopSource s;
  std::atomic<int> fired{0};
  CancelCallback cb(s.token(), [&] { ++fired; });
  EXPECT_EQ(fired.load(), 0);
  s.requestStop();
  EXPECT_EQ(fired.load(), 1);
  s.requestStop();
  EXPECT_EQ(fired.load(), 1) << "callbacks fire once";
}

TEST(CancelCallback, NotInvokedWhenRegisteringOnCancelledToken) {
  // The register/cancel race is closed by the *callers* re-checking
  // cancelled() after registration — running the callback inline here
  // would self-deadlock a caller that registers under its own lock.
  StopSource s;
  s.requestStop();
  std::atomic<int> fired{0};
  CancelCallback cb(s.token(), [&] { ++fired; });
  EXPECT_EQ(fired.load(), 0);
}

TEST(CancelCallback, UnregisteredCallbackNeverFires) {
  StopSource s;
  std::atomic<int> fired{0};
  { CancelCallback cb(s.token(), [&] { ++fired; }); }
  s.requestStop();
  EXPECT_EQ(fired.load(), 0);
}

TEST(StopSource, LinkToCascadesParentCancel) {
  StopSource parent;
  StopSource child;
  child.linkTo(parent.token());
  EXPECT_FALSE(child.stopRequested());
  parent.requestStop();
  EXPECT_TRUE(child.stopRequested()) << "parent cancel reaches linked child synchronously";
}

TEST(StopSource, LinkToAlreadyCancelledParentCancelsNow) {
  StopSource parent;
  parent.requestStop();
  StopSource child;
  child.linkTo(parent.token());
  EXPECT_TRUE(child.stopRequested());
}

TEST(CancelScope, AmbientTokenNestsAndRestores) {
  EXPECT_FALSE(CancelScope::current().canBeCancelled());
  StopSource outer;
  {
    CancelScope a(outer.token());
    EXPECT_TRUE(CancelScope::current().canBeCancelled());
    StopSource inner;
    inner.requestStop();
    {
      CancelScope b(inner.token());
      EXPECT_TRUE(CancelScope::current().cancelled());
    }
    EXPECT_FALSE(CancelScope::current().cancelled()) << "outer scope restored";
  }
  EXPECT_FALSE(CancelScope::current().canBeCancelled());
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(PoolCancel, CancelledTaskBodyIsSkipped) {
  ThreadPool pool;
  StopSource s;
  s.requestStop();
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; }, s.token());
  pool.shutdown();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(pool.tasksCompleted(), 1u) << "the wrapper still completes";
}

// ---------------------------------------------------------------------
// Pipe cancellation and deadlines
// ---------------------------------------------------------------------

TEST(PipeCancel, CancelUnblocksProducerOnFullQueue) {
  ThreadPool pool;
  auto pipe = Pipe::create([] { return infinite(); }, /*capacity=*/2, pool);
  // Wait until the producer has filled the queue and is blocked in put.
  while (pipe->queue().size() < 2) std::this_thread::sleep_for(1ms);
  pipe->cancel();
  // The producer must return within one queue operation: its task
  // completes and closes the queue without anyone draining it.
  pool.shutdown();
  EXPECT_EQ(pool.tasksCompleted(), 1u);
  EXPECT_TRUE(pipe->queue().closed());
  EXPECT_FALSE(pipe->activate().has_value()) << "cancelled pipe fails, not blocks";
  EXPECT_FALSE(pipe->activate().has_value()) << "and stays failed";
}

TEST(PipeCancel, FourStageChainUnblocksEveryProducer) {
  // The acceptance scenario: a 4-stage chain, every queue full, cancel
  // only the most-downstream pipe — all four producers must return.
  ThreadPool pool;
  auto p1 = Pipe::create([] { return infinite(); }, 2, pool);
  auto p2 = Pipe::create([p1]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p1))); },
                         2, pool);
  auto p3 = Pipe::create([p2]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p2))); },
                         2, pool);
  auto p4 = Pipe::create([p3]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p3))); },
                         2, pool);
  p1->cancelWith(p2->cancelToken());
  p2->cancelWith(p3->cancelToken());
  p3->cancelWith(p4->cancelToken());
  // Let every stage fill: all four queues at capacity, all four
  // producers blocked in a put.
  while (p1->queue().size() < 2 || p2->queue().size() < 2 || p3->queue().size() < 2 ||
         p4->queue().size() < 2) {
    std::this_thread::sleep_for(1ms);
  }
  p4->cancel();
  pool.shutdown();  // joins all workers: hangs (and times out) if any producer stayed blocked
  EXPECT_EQ(pool.tasksCompleted(), 4u);
  EXPECT_TRUE(p1->queue().closed());
  EXPECT_TRUE(p2->queue().closed());
  EXPECT_TRUE(p3->queue().closed());
  EXPECT_TRUE(p4->queue().closed());
}

TEST(PipeCancel, PipelineBuildCancellableStopsAllStages) {
  Pipeline pl(/*pipeCapacity=*/2);
  auto built = pl.buildCancellable([] { return infinite(); });
  ASSERT_TRUE(built.gen->nextValue().has_value()) << "pipeline streams before cancel";
  built.stop.requestStop();
  // After the cancel, the source pipe's producer exits and closes its
  // queue; the consumer-visible stream ends (possibly after buffered
  // values drain).
  int remaining = 0;
  while (built.gen->nextValue()) ++remaining;
  EXPECT_LE(remaining, 4) << "only the already-buffered prefix may still arrive";
}

TEST(PipeDeadline, ActivateUntilTimesOutAndStaysReactivatable) {
  ThreadPool pool;
  auto gate = std::make_shared<SpscRing<Value>>(4);
  // Producer forwards whatever the gate supplies — controllable latency.
  auto pipe = Pipe::create(
      [gate]() -> GenPtr {
        return CallbackGen::create([gate]() -> CallbackGen::Puller {
          return [gate]() -> std::optional<Value> { return gate->take(); };
        });
      },
      4, pool);
  EXPECT_FALSE(pipe->activateUntil(std::chrono::steady_clock::now() + 30ms).has_value())
      << "no value within the deadline: fail";
  gate->put(Value::integer(42));
  auto v = pipe->activate();
  ASSERT_TRUE(v.has_value()) << "a timed-out pipe is NOT finished";
  EXPECT_EQ(v->requireInt64(), 42);
  gate->close();
  EXPECT_FALSE(pipe->activate().has_value());
}

TEST(CoExpr, BaseActivateUntilIgnoresDeadline) {
  // A plain co-expression computes on the caller's thread; the deadline
  // bounds waiting, and the base class never waits.
  auto c = CoExpression::create([] { return test::range(1, 3); });
  auto v = c->activateUntil(std::chrono::steady_clock::now() - 1h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->requireInt64(), 1);
}

// ---------------------------------------------------------------------
// Failure containment
// ---------------------------------------------------------------------

TEST(PipeError, DeliveredPrefixThenErrorThenDeterministicFailure) {
  ThreadPool pool;
  auto pipe = Pipe::create([] { return throwingAfter(3, 201); }, 16, pool);
  EXPECT_EQ(pipe->activate()->requireInt64(), 1);
  EXPECT_EQ(pipe->activate()->requireInt64(), 2);
  EXPECT_EQ(pipe->activate()->requireInt64(), 3);
  try {
    pipe->activate();
    FAIL() << "expected IconError 201";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 201);
  }
  // Satellite regression: an activation after the consumed error is a
  // plain deterministic failure — it never blocks, never re-throws.
  EXPECT_FALSE(pipe->activate().has_value());
  EXPECT_FALSE(pipe->activate().has_value());
}

TEST(PipeError, NonIconProducerExceptionWrappedAsStageFailed) {
  ThreadPool pool;
  auto pipe = Pipe::create(
      []() -> GenPtr {
        return CallbackGen::create([]() -> CallbackGen::Puller {
          return []() -> std::optional<Value> { throw std::runtime_error("boom"); };
        });
      },
      4, pool);
  try {
    pipe->activate();
    FAIL() << "expected IconError 801";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 801);
    EXPECT_NE(e.message().find("boom"), std::string::npos) << "original cause preserved";
  }
}

TEST(PipeError, ErroringStageCancelsLinkedUpstream) {
  ThreadPool pool;
  auto upstream = Pipe::create([] { return infinite(); }, 2, pool);
  auto failing = Pipe::create(
      []() -> GenPtr {
        return CallbackGen::create([]() -> CallbackGen::Puller {
          return []() -> std::optional<Value> { throw errDivisionByZero(); };
        });
      },
      2, pool);
  upstream->cancelWith(failing->cancelToken());
  EXPECT_THROW(failing->activate(), IconError);
  // The consumer may be woken mid-cascade (its wakeup callback runs
  // before the upstream link's), so poll rather than assert instantly.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!upstream->cancelRequested() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(upstream->cancelRequested()) << "stage error cascades to its producers";
  pool.shutdown();  // both producers must have exited
  EXPECT_EQ(pool.tasksCompleted(), 2u);
}

TEST(FutureError, GetRethrowsOnEveryCall) {
  FutureValue fut([]() -> GenPtr {
    return CallbackGen::create([]() -> CallbackGen::Puller {
      return []() -> std::optional<Value> { throw errDivisionByZero(); };
    });
  });
  for (int i = 0; i < 3; ++i) {
    try {
      fut.get();
      FAIL() << "expected IconError on call " << i;
    } catch (const IconError& e) {
      EXPECT_EQ(e.number(), 201) << "same error every time, never a silent failure";
    }
  }
}

TEST(FutureError, FailureIsNotAnError) {
  FutureValue fut([]() -> GenPtr { return FailGen::create(); });
  EXPECT_FALSE(fut.get().has_value());
  EXPECT_FALSE(fut.get().has_value());
}

TEST(PipeDump, DumpAllReportsLivePipes) {
  ThreadPool pool;
  auto pipe = Pipe::create([] { return test::range(1, 4); }, 8, pool);
  while (!pipe->queue().closed()) std::this_thread::sleep_for(1ms);
  std::ostringstream os;
  Pipe::dumpAll(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("live pipes"), std::string::npos);
  EXPECT_NE(dump.find("closed=1"), std::string::npos);
}

}  // namespace
}  // namespace congen
