// bench_obs.cpp — price of the observability layer. obs/disabled_* pin
// the one-relaxed-load contract on the instrumented hot paths (queue
// hand-off and kernel iteration with metrics off must track the
// uninstrumented baselines in bench_queue / bench_kernel_overhead);
// obs/enabled_* and obs/registry_* size the cost when metrics are on so
// "always-on in production" is a decision with a number attached.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "congen.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_stats.hpp"

namespace {

using namespace congen;

// RAII so a benchmark can't leak the process-wide flag into the next
// registered benchmark (registration order is alphabetical, not file
// order).
struct MetricsOn {
  MetricsOn() { obs::enableMetrics(); }
  ~MetricsOn() { obs::disableMetrics(); }
};

struct MetricsOff {
  MetricsOff() { obs::disableMetrics(); }
};

void queueHandoffInstrumented(benchmark::State& state) {
  constexpr int kItems = 20000;
  constexpr std::size_t kCapacity = 1024;
  for (auto _ : state) {
    SpscRing<int> q(kCapacity);
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

void obsDisabledQueueHandoff(benchmark::State& state) {
  MetricsOff off;
  queueHandoffInstrumented(state);
}
BENCHMARK(obsDisabledQueueHandoff)->Name("obs/disabled_queue_handoff")->UseRealTime();

void obsEnabledQueueHandoff(benchmark::State& state) {
  MetricsOn on;
  queueHandoffInstrumented(state);
}
BENCHMARK(obsEnabledQueueHandoff)->Name("obs/enabled_queue_handoff")->UseRealTime();

void kernelIteration(benchmark::State& state) {
  // !(1 to N): one arena allocation + N frame-free activations, the
  // same shape bench_kernel_overhead gates on.
  constexpr std::int64_t kLimit = 10000;
  for (auto _ : state) {
    auto g = RangeGen::create(Value::integer(1), Value::integer(kLimit), Value::integer(1));
    std::int64_t count = 0;
    while (g->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kLimit);
}

void obsDisabledKernelIteration(benchmark::State& state) {
  MetricsOff off;
  kernelIteration(state);
}
BENCHMARK(obsDisabledKernelIteration)->Name("obs/disabled_kernel_iteration");

void obsEnabledKernelIteration(benchmark::State& state) {
  MetricsOn on;
  kernelIteration(state);
}
BENCHMARK(obsEnabledKernelIteration)->Name("obs/enabled_kernel_iteration");

void obsRegistryCounterAdd(benchmark::State& state) {
  MetricsOn on;
  auto& c = obs::Registry::global().counter("bench.obs.counter");
  for (auto _ : state) c.add(1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(obsRegistryCounterAdd)->Name("obs/registry_counter_add")->Threads(1)->Threads(4);

void obsRegistryHistogramRecord(benchmark::State& state) {
  MetricsOn on;
  auto& h = obs::Registry::global().histogram(
      "bench.obs.histogram", {1, 8, 64, 512, 4096, 32768});
  std::uint64_t v = 0;
  for (auto _ : state) h.record(v++ & 0xffff);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(obsRegistryHistogramRecord)
    ->Name("obs/registry_histogram_record")
    ->Threads(1)
    ->Threads(4);

void obsSnapshot(benchmark::State& state) {
  MetricsOn on;
  // Touch every runtime stat handle so the snapshot walks the full
  // production instrument set, not an empty registry.
  (void)obs::QueueStats::get();
  (void)obs::PipeStats::get();
  (void)obs::PoolStats::get();
  (void)obs::ParStats::get();
  (void)obs::KernelStats::get();
  for (auto _ : state) {
    auto snap = obs::Registry::global().snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(obsSnapshot)->Name("obs/snapshot_full_registry");

}  // namespace

BENCHMARK_MAIN();
