// bench_fig6_wordcount.cpp — Figure 6: performance of embedded
// concurrent generators when translated to C++ (the paper: to Java).
//
// Eight benchmarks per weight class: {Junicon, native} × {Sequential,
// Pipeline, DataParallel, MapReduce}. The paper normalizes execution
// time to the native parallel-streams map-reduce of each weight class
// and plots on a log scale; the fig6_report binary prints that table —
// this binary provides the statistically-disciplined raw measurements
// (google-benchmark ≈ the paper's JMH).
#include <benchmark/benchmark.h>

#include "wordcount.hpp"

namespace {

using namespace congen::wc;

const std::vector<std::string>& lightCorpus() {
  static const auto corpus = makeCorpus(/*lines=*/256, /*wordsPerLine=*/8);
  return corpus;
}

// The heavyweight hash is ~80x the light one; a smaller corpus keeps
// wall-clock sane while the per-element cost dominates, as in the paper.
const std::vector<std::string>& heavyCorpus() {
  static const auto corpus = makeCorpus(/*lines=*/24, /*wordsPerLine=*/6);
  return corpus;
}

Params params(bool heavy) {
  Params p;
  p.heavy = heavy;
  p.chunkSize = 16;
  p.queueCapacity = 256;
  return p;
}

template <double (*Variant)(const std::vector<std::string>&, const Params&)>
void runVariant(benchmark::State& state) {
  const bool heavy = state.range(0) != 0;
  const auto& corpus = heavy ? heavyCorpus() : lightCorpus();
  const Params p = params(heavy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Variant(corpus, p));
  }
  state.SetLabel(heavy ? "heavyweight" : "lightweight");
}

}  // namespace

// Weight: 0 = lightweight, 1 = heavyweight — the two halves of Fig. 6.
#define FIG6_BENCH(name, fn)                                    \
  BENCHMARK_TEMPLATE(runVariant, fn)                            \
      ->Name(name)                                              \
      ->Arg(0)                                                  \
      ->Arg(1)                                                  \
      ->Unit(benchmark::kMillisecond)                           \
      ->MinTime(0.4)

FIG6_BENCH("fig6/native/Sequential", congen::wc::nativeSequential);
FIG6_BENCH("fig6/native/Pipeline", congen::wc::nativePipeline);
FIG6_BENCH("fig6/native/DataParallel", congen::wc::nativeDataParallel);
FIG6_BENCH("fig6/native/MapReduce", congen::wc::nativeMapReduce);
FIG6_BENCH("fig6/junicon/Sequential", congen::wc::juniconSequential);
FIG6_BENCH("fig6/junicon/Pipeline", congen::wc::juniconPipeline);
FIG6_BENCH("fig6/junicon/DataParallel", congen::wc::juniconDataParallel);
FIG6_BENCH("fig6/junicon/MapReduce", congen::wc::juniconMapReduce);

BENCHMARK_MAIN();
