// pipe_test.cpp — the multithreaded generator proxy (|>, Section III.B).
#include "concur/pipe.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "../testutil.hpp"
#include "interp/interpreter.hpp"
#include "runtime/error.hpp"
#include "runtime/var.hpp"

namespace congen {
namespace {

using test::ints;

TEST(PipeBasics, StreamsAllResultsInOrder) {
  auto pipe = Pipe::create([] { return test::range(1, 100); });
  std::vector<std::int64_t> got;
  while (auto v = pipe->activate()) got.push_back(v->requireInt64());
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 1);
  EXPECT_FALSE(pipe->activate().has_value()) << "exhausted pipe stays exhausted";
}

TEST(PipeBasics, EmptyExpressionFailsImmediately) {
  auto pipe = Pipe::create([] { return FailGen::create(); });
  EXPECT_FALSE(pipe->activate().has_value());
}

TEST(PipeBasics, RunsInAnotherThread) {
  const auto consumerId = std::this_thread::get_id();
  std::atomic<bool> different{false};
  auto pipe = Pipe::create([consumerId, &different]() -> GenPtr {
    return CallbackGen::create([consumerId, &different]() -> CallbackGen::Puller {
      bool done = false;
      return [consumerId, &different, done]() mutable -> std::optional<Value> {
        if (done) return std::nullopt;
        done = true;
        different = std::this_thread::get_id() != consumerId;
        return Value::integer(1);
      };
    });
  });
  ASSERT_TRUE(pipe->activate().has_value());
  EXPECT_TRUE(different.load()) << "the piped expression runs on a pool thread";
}

TEST(PipeThrottle, CapacityBoundsProduction) {
  std::atomic<int> produced{0};
  auto pipe = Pipe::create(
      [&produced]() -> GenPtr {
        return CallbackGen::create([&produced]() -> CallbackGen::Puller {
          int n = 0;
          return [&produced, n]() mutable -> std::optional<Value> {
            if (n >= 1000) return std::nullopt;
            ++produced;
            return Value::integer(++n);
          };
        });
      },
      /*capacity=*/4);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(produced.load(), 6) << "bounded queue throttles the producer (Section III.B)";
  while (pipe->activate()) {
  }
  EXPECT_EQ(produced.load(), 1000);
}

TEST(PipeAbandon, DroppingThePipeDoesNotDeadlockTheProducer) {
  std::atomic<bool> producerExited{false};
  {
    auto pipe = Pipe::create(
        [&producerExited]() -> GenPtr {
          return CallbackGen::create([&producerExited]() -> CallbackGen::Puller {
            return [&producerExited]() -> std::optional<Value> {
              // Infinite supply: only queue-close can stop us. Flag exit
              // through a destructor-ordered sentinel below instead.
              return Value::integer(1);
            };
          });
        },
        /*capacity=*/2);
    ASSERT_TRUE(pipe->activate().has_value());
    // pipe destroyed here with the producer blocked on put().
  }
  // If close() did not release the producer, the pool thread would stay
  // blocked; give it a moment and verify the pool can still run work.
  std::atomic<bool> ran{false};
  ThreadPool::global().submit([&ran] { ran = true; });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  (void)producerExited;
}

TEST(PipeError, ProducerExceptionRethrownAtConsumer) {
  auto pipe = Pipe::create([]() -> GenPtr {
    return CallbackGen::create([]() -> CallbackGen::Puller {
      return []() -> std::optional<Value> { throw errDivisionByZero(); };
    });
  });
  EXPECT_THROW(pipe->activate(), IconError) << "run-time errors cross the thread boundary";
}

TEST(PipeRefresh, RefreshedPipeRestartsFromScratch) {
  std::atomic<int> builds{0};
  auto factory = [&builds]() -> GenPtr {
    ++builds;
    return test::range(1, 3);
  };
  auto pipe = Pipe::create(factory, /*capacity=*/16);
  EXPECT_EQ(pipe->activate()->smallInt(), 1);
  auto fresh = rcStaticCast<Pipe>(pipe->refreshed());
  EXPECT_EQ(fresh->queue().capacity(), 16u) << "^pipe keeps the capacity (and so the hand-off cap)";
  EXPECT_EQ(fresh->activate()->smallInt(), 1) << "^pipe starts over";
  EXPECT_GE(builds.load(), 2);
}

TEST(PipeEnvironment, SnapshotTakenAtCreation) {
  // The data race the paper's shadowing exists to prevent: mutate the
  // local right after creating the pipe; the pipe must see the old value.
  auto x = CellVar::create(Value::integer(10));
  GenFactory factory = [snapshot = CellVar::create(x->get())]() -> GenPtr {
    return VarGen::create(snapshot);
  };
  // shadowEnv-style: the snapshot cell above was filled at factory
  // *construction*; Pipe builds the body eagerly in its constructor.
  auto pipe = Pipe::create(factory);
  x->set(Value::integer(999));
  EXPECT_EQ(pipe->activate()->smallInt(), 10);
}

TEST(PipeChain, TwoStagePipeline) {
  // |> (x*2) over |> (1..50): chained pipes, order preserved end to end.
  auto stage1 = Pipe::create([] { return test::range(1, 50); });
  auto stage2 = Pipe::create([stage1]() -> GenPtr {
    return makeBinaryOpGen(
        "*", PromoteGen::create(ConstGen::create(Value::coexpr(stage1))), test::ci(2));
  });
  std::vector<std::int64_t> got;
  while (auto v = stage2->activate()) got.push_back(v->requireInt64());
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], 2 * (i + 1));
}

TEST(PipeQueueExposure, PublicQueueAllowsExtraManipulation) {
  // "The output blocking queue ... is exposed as a public field to
  // permit further manipulation."
  auto pipe = Pipe::create([] { return test::range(1, 3); }, 8);
  EXPECT_EQ(pipe->queue().capacity(), 8u);
}

TEST(PipeCapacity, EveryCapacityIsBoundedIntoTheRing) {
  // One place bounds every request into [1, kMaxCapacity]: 0 is not
  // "unbounded", and an absurd request cannot commit a giant slot array.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {0, 1}, {1, 1}, {1024, 1024}, {std::size_t{1} << 30, Pipe::kMaxCapacity}};
  for (const auto& [requested, bounded] : cases) {
    auto pipe = Pipe::create([] { return test::range(1, 3); }, requested);
    EXPECT_EQ(pipe->queue().capacity(), bounded) << "requested " << requested;
    EXPECT_EQ(pipe->activate()->smallInt(), 1);
  }
  EXPECT_EQ(Pipe::kMaxCapacity, std::size_t{1} << 20);
}

/// The ring capacity of the pipe `|> (1 to 3)` builds in `interp`.
std::size_t interpretedPipeCapacity(interp::Interpreter& interp) {
  auto v = interp.evalOne("|> (1 to 3)");
  EXPECT_TRUE(v && v->isCoExpr());
  if (!v || !v->isCoExpr()) return 0;
  auto* pipe = dynamic_cast<Pipe*>(v->coExpr().get());
  EXPECT_NE(pipe, nullptr);
  return pipe != nullptr ? pipe->queue().capacity() : 0;
}

TEST(PipeCapacity, InterpreterPipesAreAlwaysBounded) {
  interp::Interpreter zero(interp::Interpreter::Options{.pipeCapacity = 0});
  EXPECT_EQ(interpretedPipeCapacity(zero), 1u) << "pipeCapacity 0 is a 1-slot ring";

  interp::Interpreter::Options governed;
  governed.quotas.maxPipeDepth = 8;
  interp::Interpreter session(governed);
  EXPECT_EQ(interpretedPipeCapacity(session), 8u) << "the pipe-depth budget clamps 1024";

  governed.pipeCapacity = 0;
  interp::Interpreter governedZero(governed);
  EXPECT_EQ(interpretedPipeCapacity(governedZero), 1u) << "0 under a budget is still bounded";
}

TEST(FutureTest, SingletonPipeIsAFuture) {
  FutureValue future([]() -> GenPtr {
    return CallbackGen::create([]() -> CallbackGen::Puller {
      bool done = false;
      return [done]() mutable -> std::optional<Value> {
        if (done) return std::nullopt;
        done = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Value::integer(7);
      };
    });
  });
  EXPECT_EQ(future.get()->smallInt(), 7) << "get blocks until the value is computed";
  EXPECT_EQ(future.get()->smallInt(), 7) << "get is idempotent";
}

TEST(FutureTest, FailedExpressionYieldsEmptyFuture) {
  FutureValue future([]() -> GenPtr { return FailGen::create(); });
  EXPECT_FALSE(future.get().has_value());
}

TEST(PipeKernelNode, MakePipeCreateGenYieldsPipeValue) {
  auto node = makePipeCreateGen([] { return test::range(5, 6); }, 4);
  auto v = node->nextValue();
  ASSERT_TRUE(v && v->isCoExpr());
  EXPECT_EQ(v->coExpr()->activate()->smallInt(), 5);
}

TEST(PipeBatching, MailboxStreamsInOrder) {
  // Capacity 1 is the future/M-var: its hand-off cap is 1, so the
  // adaptive loop publishes each value as it is produced — the
  // rendezvous — and the stream is the plain one.
  auto mailbox = Pipe::create([] { return test::range(1, 3); }, /*capacity=*/1);
  std::vector<std::int64_t> got;
  while (auto v = mailbox->activate()) got.push_back(v->requireInt64());
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(PipeBatching, BatchedStreamPreservesOrderAndCompleteness) {
  // Small queue + large stream: the adaptive accumulator grows and
  // shrinks across the run; the observable stream must be untouched.
  auto pipe = Pipe::create([] { return test::range(1, 500); }, /*capacity=*/4);
  std::int64_t expect = 1;
  while (auto v = pipe->activate()) EXPECT_EQ(v->requireInt64(), expect++);
  EXPECT_EQ(expect, 501);
  EXPECT_FALSE(pipe->activate().has_value()) << "exhausted pipe stays exhausted";
}

TEST(PipeBatching, ProducerRunsAtMostCapacityPlusOneAhead) {
  // Bounded run-ahead (INTERNALS "Batched transport"): each flush goal
  // is clamped to the ring's spare room, so before the first activate()
  // the producer fills the ring and holds at most one more value,
  // blocked in its flush.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{4}}) {
    auto produced = std::make_shared<std::atomic<std::size_t>>(0);
    auto pipe = Pipe::create(
        [produced]() -> GenPtr {
          return CallbackGen::create([produced]() -> CallbackGen::Puller {
            return [produced]() -> std::optional<Value> {
              return Value::integer(static_cast<std::int64_t>(produced->fetch_add(1) + 1));
            };
          });
        },
        capacity);
    while (pipe->queue().size() < capacity) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // room to overshoot
    EXPECT_LE(produced->load(), capacity + 1) << "capacity " << capacity;
    for (std::int64_t i = 1; i <= 10; ++i) EXPECT_EQ(pipe->activate()->requireInt64(), i);
  }
}

TEST(PipeBatching, ValuesProducedBeforeAnErrorStillArriveFirst) {
  // Every value produced before the body throws reaches the consumer
  // first: the buffered prefix is flushed before the error crosses the
  // thread boundary.
  auto pipe = Pipe::create(
      []() -> GenPtr {
        return CallbackGen::create([]() -> CallbackGen::Puller {
          int n = 0;
          return [n]() mutable -> std::optional<Value> {
            if (n >= 5) throw errDivisionByZero();
            return Value::integer(++n);
          };
        });
      },
      /*capacity=*/64);
  std::vector<std::int64_t> got;
  try {
    while (auto v = pipe->activate()) got.push_back(v->requireInt64());
    FAIL() << "the producer's error must reach the consumer";
  } catch (const IconError&) {
  }
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3, 4, 5}))
      << "batching dropped or reordered values delivered before the error";
}

TEST(PipeStress, ManyConcurrentPipes) {
  std::vector<Rc<Pipe>> pipes;
  pipes.reserve(16);
  for (int p = 0; p < 16; ++p) {
    pipes.push_back(Pipe::create([p]() -> GenPtr { return test::range(p * 100, p * 100 + 99); },
                                 /*capacity=*/8));
  }
  for (int p = 0; p < 16; ++p) {
    std::int64_t count = 0;
    while (auto v = pipes[static_cast<std::size_t>(p)]->activate()) {
      EXPECT_EQ(v->requireInt64(), p * 100 + count);
      ++count;
    }
    EXPECT_EQ(count, 100);
  }
}

}  // namespace
}  // namespace congen
