// wc_light.cpp — the Fig. 6 lightweight word count.
//
// One op runs the four concurrent-generator variants (juniconSequential,
// juniconPipeline, juniconDataParallel, juniconMapReduce) once each over
// a seeded corpus of 16384 lines x 8 words, chunked 512 lines at a time
// (32 chunks). The oracle is computed here from the corpus alone: the
// base-36 value of every word fits a double exactly (at most 9 digits),
// so the sequential sum is reproduced bit for bit and the parallel
// variants agree to rounding of their summation order.
#include <sys/resource.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "concur/thread_pool.hpp"
#include "workloads.hpp"
#include "wordcount.hpp"

namespace perfbench {
namespace {

namespace wc = congen::wc;

constexpr std::size_t kLines = 16384;
constexpr std::size_t kWordsPerLine = 8;
constexpr std::size_t kChunkLines = 512;
constexpr double kRelTolerance = 1e-9;

std::vector<std::string> makeCorpus(std::uint64_t seed) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> wordLen(3, 9);
  std::uniform_int_distribution<std::size_t> letter(0, 35);
  std::vector<std::string> lines;
  lines.reserve(kLines);
  for (std::size_t i = 0; i < kLines; ++i) {
    std::string line;
    for (std::size_t w = 0; w < kWordsPerLine; ++w) {
      if (w != 0) line += ' ';
      const std::size_t len = wordLen(rng);
      for (std::size_t k = 0; k < len; ++k) line += kAlphabet[letter(rng)];
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

/// sum over words of sqrt(base-36 value), in corpus order.
double oracleSum(const std::vector<std::string>& lines) {
  double total = 0;
  for (const auto& line : lines) {
    std::uint64_t v = 0;
    bool inWord = false;
    for (const char c : line + ' ') {
      if (c == ' ') {
        if (inWord) total += std::sqrt(static_cast<double>(v));
        v = 0;
        inWord = false;
        continue;
      }
      const int digit = c <= '9' ? c - '0' : c - 'a' + 10;
      v = v * 36 + static_cast<std::uint64_t>(digit);
      inWord = true;
    }
  }
  return total;
}

bool near(double got, double want) {
  return std::fabs(got - want) <= kRelTolerance * std::fabs(want);
}

struct Inputs {
  std::vector<std::string> lines;
  wc::Params params;
  double oracle = 0;
  double reference = 0;  // wc::referenceHash, checked against the oracle once
};

using Variant = double (*)(const std::vector<std::string>&, const wc::Params&);
struct NamedVariant {
  const char* span;
  Variant fn;
};
constexpr NamedVariant kVariants[] = {
    {"juniconSequential", &wc::juniconSequential},
    {"juniconPipeline", &wc::juniconPipeline},
    {"juniconDataParallel", &wc::juniconDataParallel},
    {"juniconMapReduce", &wc::juniconMapReduce},
};

/// One op: the four variants once each. Returns the number of variants
/// whose sum missed the oracle (0 = correct op).
int runOp(const Inputs& in, Tracer& tracer) {
  int wrong = 0;
  for (const auto& v : kVariants) {
    double sum = 0;
    {
      Tracer::Scope span(tracer, v.span);
      sum = v.fn(in.lines, in.params);
    }
    const bool exact = v.fn != &wc::juniconSequential || sum == in.oracle;
    if (!exact || !near(sum, in.oracle) || !near(sum, in.reference)) ++wrong;
  }
  return wrong;
}

Inputs makeInputs(std::uint64_t seed) {
  Inputs in;
  in.lines = makeCorpus(seed);
  in.params.heavy = false;
  in.params.chunkSize = kChunkLines;
  in.oracle = oracleSum(in.lines);
  in.reference = wc::referenceHash(in.lines, in.params);
  return in;
}

}  // namespace

void runWcLight(const Args& args, Result& out) {
  Tracer tracer;
  if (args.trace) {
    congen::obs::enableMetrics();
    tracer.enable();
  }
  const Inputs in = makeInputs(args.seed);
  if (!near(in.reference, in.oracle)) out.fail("referenceHash disagrees with the oracle");
  const double wordsPerOp = static_cast<double>(kLines * kWordsPerLine * std::size(kVariants));
  out.num("chunks", static_cast<double>((kLines + kChunkLines - 1) / kChunkLines));

  // Cold op: the pool grows its workers and the arenas fill here.
  auto& pool = congen::ThreadPool::global();
  const std::size_t threads0 = pool.threadsCreated();
  const auto t0 = Clock::now();
  int coldWrong = 0;
  try {
    coldWrong = runOp(in, tracer);
  } catch (const std::exception& e) {
    out.fail(std::string("cold op threw: ") + e.what());
    coldWrong = 1;
  }
  out.num("setup_s", secondsSince(t0));
  const auto coldThreads = static_cast<double>(pool.threadsCreated() - threads0);
  out.num("pool_threads_cold_op", coldThreads);
  if (coldWrong != 0) out.fail("cold op result mismatch");

  // Warm ops for the measured window. Each op also records the host steal
  // during it, so run.py can take its time net of steal (see NOTES.md).
  std::vector<double> opMs;
  std::vector<double> opStealPct;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::size_t threads1 = pool.threadsCreated();
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  RegistryDelta reg;
  if (args.trace) reg.before = congen::obs::Registry::global().snapshot();
  const StealProbe steal({"self"});
  const auto start = Clock::now();
  double elapsed = 0;
  while (elapsed < args.seconds) {
    const StealProbe opSteal({"self"});
    const auto opStart = Clock::now();
    bool good = false;
    try {
      Tracer::Scope span(tracer, "wc.op");
      good = runOp(in, tracer) == 0;
    } catch (const std::exception&) {
    }
    opMs.push_back(secondsSince(opStart) * 1e3);
    opStealPct.push_back(opSteal.sharePct());
    ++attempted;
    if (!good) ++failed;
    elapsed = secondsSince(start);
  }
  if (args.trace) reg.after = congen::obs::Registry::global().snapshot();
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);

  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.num("elapsed_s", elapsed);
  out.num("host_steal_pct", steal.sharePct());
  out.num("work", wordsPerOp * static_cast<double>(attempted));
  out.num("throughput_per_s", wordsPerOp * static_cast<double>(attempted) / elapsed);
  out.num("op_ms_p50", median(opMs));
  out.num("op_samples", static_cast<double>(opMs.size()));
  out.num("work_per_op", wordsPerOp);
  out.list("op_ms", opMs);
  out.list("op_steal_pct", opStealPct);
  out.num("pool_threads_warm_per_op",
          static_cast<double>(pool.threadsCreated() - threads1) / static_cast<double>(attempted));
  out.num("vol_ctx_switches_per_op",
          static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw) / static_cast<double>(attempted));
  if (failed != 0) out.fail("warm op result mismatch");

  if (args.trace) {
    // Per-variant drive times, then the native compute floor.
    const double seq = tracer.medianMs("juniconSequential");
    const double mapReduce = tracer.medianMs("juniconMapReduce");
    out.num("par.seq_ms", seq);
    out.num("par.pipeline_ms", tracer.medianMs("juniconPipeline"));
    out.num("par.dataparallel_ms", tracer.medianMs("juniconDataParallel"));
    out.num("par.mapreduce_ms", mapReduce);
    out.num("par.mapreduce_speedup", seq / mapReduce);
    for (int i = 0; i < 5; ++i) {
      Tracer::Scope span(tracer, "nativeSequential");
      if (wc::nativeSequential(in.lines, in.params) != in.oracle) {
        out.fail("nativeSequential result mismatch");
      }
    }
    const double native = tracer.medianMs("nativeSequential");
    out.num("bignum.wc_native_seq_ms", native);
    out.num("kernel.wc_overhead_ms", seq - native);

    const double elems =
        reg.counter("queue.take.elements") + reg.counter("queue.take.batch_elements");
    out.num("concur.ring.consumer_parks_per_kelem",
            ratio(reg.counter("ring.consumer_parks"), elems / 1e3));
    out.num("concur.ring.producer_parks_per_kelem",
            ratio(reg.counter("ring.producer_parks"), elems / 1e3));
    out.num("concur.queue.elems_per_take_batch",
            ratio(reg.counter("queue.take.batch_elements"), reg.counter("queue.take.batches")));
    out.num("concur.queue.blocked_take_us_p50", reg.histQuantile("queue.blocked.take_micros", 0.5));
    out.num("concur.pool.threads_created_per_op", coldThreads);
    out.num("concur.pool.queue_latency_us_p50", reg.histQuantile("pool.queue_latency_micros", 0.5));
    out.num("concur.pool.steal_ratio",
            ratio(reg.counter("pool.tasks_stolen"), reg.counter("pool.tasks_run")));
    out.num("ring_consumer_parks", reg.counter("ring.consumer_parks"));
    out.num("ring_producer_parks", reg.counter("ring.producer_parks"));
    if (!args.traceOut.empty() && !tracer.write(args.traceOut)) out.fail("cannot write spans");
  }
  out.num("peak_rss_mb", procStatusMb("self", "VmHWM"));
  recordProcessStats(args, out);
}

}  // namespace perfbench
