// bench_queue.cpp — the pipe transport substrate and pipe throttling:
// capacity sweep for producer/consumer hand-off ("bounding the output
// queue buffer size can also be used to throttle a threaded
// co-expression", Section III.B).
//
// The hand-off benches run on SpscRing, the lock-free ring every pipe
// uses. `queue/pipelines_scaling/N` runs N
// independent pipelines concurrently: with the sharded work-stealing
// pool and per-pipe rings there is no shared lock left between them, so
// items/s should hold near-flat as N grows.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "congen.hpp"

namespace {

using namespace congen;

void queueHandoff(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  constexpr int kItems = 20000;
  for (auto _ : state) {
    SpscRing<int> q(capacity);
    std::jthread producer([&q] {
      for (int i = 0; i < kItems; ++i) {
        if (!q.put(i)) return;
      }
      q.close();
    });
    std::int64_t sum = 0;
    while (auto v = q.take()) sum += *v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}

void queueHandoffBatched(benchmark::State& state) {
  // Bulk hand-off: the producer accumulates `batch` elements and
  // publishes them with one putAll; the consumer drains with takeUpTo.
  // batch == 1 runs the scalar put/take ops — the protocol of the
  // native Fig. 6 pipeline — and anchors the element-vs-batch throughput
  // comparison in the bench JSON.
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  constexpr int kItems = 20000;
  for (auto _ : state) {
    SpscRing<int> q(capacity);
    std::jthread producer([&q, batch] {
      if (batch == 1) {
        for (int i = 0; i < kItems; ++i) {
          if (!q.put(i)) return;
        }
        q.close();
        return;
      }
      std::vector<int> buf;
      buf.reserve(batch);
      for (int i = 0; i < kItems; ++i) {
        buf.push_back(i);
        if (buf.size() >= batch) {
          q.putAll(buf);
          if (!buf.empty()) return;  // closed under us — stop
        }
      }
      if (!buf.empty()) q.putAll(buf);
      q.close();
    });
    std::int64_t sum = 0;
    if (batch == 1) {
      while (auto v = q.take()) sum += *v;
    } else {
      for (;;) {
        auto chunk = q.takeUpTo(batch);
        if (chunk.empty()) break;
        for (int v : chunk) sum += v;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}

void queueUncontended(benchmark::State& state) {
  // Same-thread put/take on the ring: the raw acquire/release cost
  // without blocking (one release store + one acquire load per op).
  SpscRing<int> q(64);
  for (auto _ : state) {
    q.put(1);
    benchmark::DoNotOptimize(q.take());
  }
  state.SetItemsProcessed(state.iterations());
}

void pipeThroughput(benchmark::State& state) {
  // End-to-end pipe cost per element at different throttle bounds
  // (range(0) = capacity). Capacity 1 is the future/mailbox rendezvous:
  // its hand-off cap is 1, so every value crosses on its own.
  const auto capacity = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kItems = 20000;
  for (auto _ : state) {
    auto pipe = Pipe::create(
        [] {
          return RangeGen::create(Value::integer(1), Value::integer(kItems), Value::integer(1));
        },
        capacity);
    std::int64_t count = 0;
    while (pipe->activate()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}

void pipelinesScaling(benchmark::State& state) {
  // N independent pipelines, each a pipe producer on the shared pool
  // drained by its own consumer thread. The row family's items/s holding
  // near-flat as N grows is the whole point of the sharded pool + ring:
  // no cross-pipeline lock remains.
  const auto n = static_cast<int>(state.range(0));
  constexpr std::int64_t kItems = 20000;
  for (auto _ : state) {
    std::vector<std::jthread> consumers;
    consumers.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      consumers.emplace_back([] {
        auto pipe = Pipe::create([] {
          return RangeGen::create(Value::integer(1), Value::integer(kItems), Value::integer(1));
        });
        std::int64_t count = 0;
        while (pipe->activate()) ++count;
        benchmark::DoNotOptimize(count);
      });
    }
    consumers.clear();  // join
  }
  state.SetItemsProcessed(state.iterations() * kItems * n);
}

void futureLatency(benchmark::State& state) {
  for (auto _ : state) {
    FutureValue future([] { return ConstGen::create(Value::integer(42)); });
    benchmark::DoNotOptimize(future.get());
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(queueHandoff)->Name("queue/handoff_capacity")->Arg(1)->Arg(4)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(queueHandoffBatched)->Name("queue/handoff_batched")
    ->Args({1024, 1})->Args({1024, 8})->Args({1024, 64})->Args({1024, 256})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(queueUncontended)->Name("queue/uncontended");
BENCHMARK(pipeThroughput)->Name("queue/pipe_capacity")->Arg(1)->Arg(4)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
// UseRealTime: the bench thread only spawns and joins the consumers, so
// its CPU clock would wildly inflate items/s; wall time is the metric.
BENCHMARK(pipelinesScaling)->Name("queue/pipelines_scaling")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(futureLatency)->Name("queue/future_roundtrip")->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
