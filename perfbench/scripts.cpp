// scripts.cpp — interpreted, single-threaded Junicon on the default
// backend (whatever Interpreter::Options picks without CONGEN_BACKEND).
//
// Set-up loads examples/scripts/{nqueens,wordfreq,wordcount}.jn into one
// Interpreter. One op runs four program passes: queens(9), countWords
// over a seeded corpus, runSequential over the same corpus bound as the
// global `lines`, and the refine search (1 to 50) * isprime(4 to 100).
// Every result is checked against a tally computed here in plain C++.
#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "runtime/collections.hpp"
#include "transform/normalize.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using congen::Value;
using congen::interp::Backend;
using congen::interp::Interpreter;

constexpr const char* kScripts[] = {"nqueens.jn", "wordfreq.jn", "wordcount.jn"};
constexpr std::size_t kLines = 1600;
constexpr std::size_t kWordsPerLine = 8;
constexpr std::size_t kVocabulary = 300;
constexpr int kQueens = 9;
constexpr std::uint64_t kQueensSolutions = 352;  // OEIS A000170
constexpr const char* kRefine = "(1 to 50) * isprime(4 to 100)";
constexpr int kPassesPerOp = 4;

struct Inputs {
  std::vector<std::string> sources;
  std::vector<std::string> lines;
  std::map<std::string, std::int64_t> tally;  // countWords oracle
  double wordSum = 0;                           // runSequential oracle
  std::uint64_t refineCount = 0;                // refine oracle: results ...
  std::int64_t refineSum = 0;                   // ... and their sum
};

Inputs makeInputs(const Args& args) {
  Inputs in;
  for (const char* name : kScripts) {
    const std::string path = args.root + "/examples/scripts/" + name;
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << file.rdbuf();
    in.sources.push_back(text.str());
  }

  // Lowercase words (valid for both the scanner's letter set and base 36)
  // drawn from a seeded vocabulary with a skewed frequency, so the table
  // sees repeated keys.
  std::mt19937_64 rng(args.seed);
  std::uniform_int_distribution<std::size_t> len(3, 8);
  std::uniform_int_distribution<int> letter(0, 25);
  std::vector<std::string> vocab;
  for (std::size_t i = 0; i < kVocabulary; ++i) {
    std::string w;
    for (std::size_t k = len(rng); k > 0; --k) w += static_cast<char>('a' + letter(rng));
    vocab.push_back(std::move(w));
  }
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t i = 0; i < kLines; ++i) {
    std::string line;
    for (std::size_t w = 0; w < kWordsPerLine; ++w) {
      const double x = u(rng);
      const std::string& word = vocab[static_cast<std::size_t>(x * x * kVocabulary)];
      if (w != 0) line += ' ';
      line += word;
      in.tally[word] += 1;
      std::uint64_t v = 0;
      for (const char c : word) v = v * 36 + static_cast<std::uint64_t>(c - 'a' + 10);
      in.wordSum += std::sqrt(static_cast<double>(v));
    }
    in.lines.push_back(std::move(line));
  }

  for (std::int64_t p = 4; p <= 100; ++p) {
    bool prime = p >= 2;
    for (std::int64_t d = 2; d * d <= p; ++d) prime = prime && p % d != 0;
    if (!prime) continue;
    for (std::int64_t i = 1; i <= 50; ++i) {
      ++in.refineCount;
      in.refineSum += i * p;
    }
  }
  return in;
}

/// One loaded interpreter plus the corpus value bound into it.
struct System {
  Interpreter interp;
  Value lines;

  System(const Inputs& in, Backend backend, Tracer& tracer)
      : interp([backend] {
          Interpreter::Options o;
          o.backend = backend;
          return o;
        }()) {
    {
      Tracer::Scope span(tracer, "interp.load");
      for (const auto& src : in.sources) interp.load(src);
    }
    auto list = congen::ListImpl::create();
    for (const auto& line : in.lines) list->put(Value::string(line));
    lines = Value::list(list);
    interp.defineGlobal("lines", lines);
    interp.defineGlobal("letters", Value::string("abcdefghijklmnopqrstuvwxyz"));
  }
};

/// One op: the four program passes, each checked. Returns the number of
/// passes whose result missed the oracle.
int runOp(System& sys, const Inputs& in, Tracer& tracer) {
  int wrong = 0;
  {
    Tracer::Scope span(tracer, "interp.queens");
    std::uint64_t n = 0;
    auto gen = sys.interp.call("queens", {Value::integer(std::int64_t{kQueens})});
    while (gen->nextValue()) ++n;
    if (n != kQueensSolutions) ++wrong;
  }
  {
    Tracer::Scope span(tracer, "interp.wordfreq");
    auto result = sys.interp.call("countWords", {sys.lines})->nextValue();
    bool good = result && result->isTable();
    if (good) {
      const auto& entries = result->table()->entries();
      good = entries.size() == in.tally.size();
      for (const auto& [key, count] : entries) {
        if (!good) break;
        const auto it = key.isString() ? in.tally.find(std::string(key.str())) : in.tally.end();
        good = it != in.tally.end() && count.isSmallInt() && count.smallInt() == it->second;
      }
    }
    if (!good) ++wrong;
  }
  {
    Tracer::Scope span(tracer, "interp.wordcount");
    auto result = sys.interp.call("runSequential", {})->nextValue();
    if (!result || !result->isReal() ||
        std::fabs(result->real() - in.wordSum) > 1e-9 * std::fabs(in.wordSum)) {
      ++wrong;
    }
  }
  {
    Tracer::Scope span(tracer, "interp.refine");
    std::uint64_t n = 0;
    std::int64_t sum = 0;
    auto gen = sys.interp.eval(kRefine);
    while (auto v = gen->nextValue()) {
      ++n;
      sum += v->isSmallInt() ? v->smallInt() : 0;
    }
    if (n != in.refineCount || sum != in.refineSum) ++wrong;
  }
  return wrong;
}

struct Window {
  std::vector<double> opMs;
  std::uint64_t failed = 0;
  double elapsed = 0;
};

Window measure(System& sys, const Inputs& in, Tracer& tracer, double seconds) {
  Window w;
  const auto start = Clock::now();
  while (w.elapsed < seconds) {
    const auto t = Clock::now();
    bool good = false;
    try {
      Tracer::Scope span(tracer, "scripts.op");
      good = runOp(sys, in, tracer) == 0;
    } catch (const std::exception&) {
    }
    w.opMs.push_back(secondsSince(t) * 1e3);
    if (!good) ++w.failed;
    w.elapsed = secondsSince(start);
  }
  return w;
}

/// Layer probes over the script sources: each call timed on its own,
/// `reps` times; medians in microseconds.
void frontendLayers(const Inputs& in, Tracer& tracer, Result& out) {
  constexpr int reps = 30;
  for (int r = 0; r < reps; ++r) {
    for (const auto& src : in.sources) {
      Tracer::Scope span(tracer, "frontend.tokenize");
      if (congen::frontend::tokenize(src).empty()) out.fail("tokenize returned nothing");
    }
    for (const auto& src : in.sources) {
      congen::ast::NodePtr program;
      {
        Tracer::Scope span(tracer, "frontend.parse");
        program = congen::frontend::parseProgram(src);
      }
      Tracer::Scope span(tracer, "transform.normalize");
      if (!congen::transform::normalizeProgram(program)) out.fail("normalize returned null");
    }
  }
  // Per-file spans summed back to "all three sources" per repetition.
  auto perRepUs = [&](const char* name) {
    const auto ms = tracer.durationsMs(name);
    std::vector<double> sums;
    for (std::size_t i = 0; i + std::size(kScripts) <= ms.size(); i += std::size(kScripts)) {
      double s = 0;
      for (std::size_t k = 0; k < std::size(kScripts); ++k) s += ms[i + k];
      sums.push_back(s * 1e3);
    }
    return median(sums);
  };
  out.num("frontend.tokenize_us", perRepUs("frontend.tokenize"));
  out.num("frontend.parse_us", perRepUs("frontend.parse"));
  out.num("transform.normalize_us", perRepUs("transform.normalize"));
}

}  // namespace

void runScripts(const Args& args, Result& out) {
  Tracer tracer;
  if (args.trace) {
    congen::obs::enableMetrics();
    tracer.enable();
  }
  const Inputs in = makeInputs(args);
  const Backend backend = congen::interp::defaultBackend();
  out.str("backend", backend == Backend::kVm ? "vm" : "tree");

  const auto t0 = Clock::now();
  System sys(in, backend, tracer);
  int coldWrong = 1;
  try {
    coldWrong = runOp(sys, in, tracer);
  } catch (const std::exception& e) {
    out.fail(std::string("cold op threw: ") + e.what());
  }
  out.num("setup_s", secondsSince(t0));
  if (coldWrong != 0) out.fail("cold op result mismatch");

  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  RegistryDelta reg;
  if (args.trace) reg.before = congen::obs::Registry::global().snapshot();
  const StealProbe steal({"self"});
  const Window w = measure(sys, in, tracer, args.seconds);
  out.num("host_steal_pct", steal.sharePct());
  if (args.trace) reg.after = congen::obs::Registry::global().snapshot();
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);

  const auto ops = static_cast<double>(w.opMs.size());
  out.num("attempted", ops);
  out.num("failed", static_cast<double>(w.failed));
  out.num("elapsed_s", w.elapsed);
  out.num("work", kPassesPerOp * ops);
  out.num("throughput_per_s", kPassesPerOp * ops / w.elapsed);
  out.num("op_ms_p50", median(w.opMs));
  out.num("op_samples", ops);
  out.num("vol_ctx_switches_per_op", static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw) / ops);
  if (w.failed != 0) out.fail("warm op result mismatch");

  if (args.trace) {
    out.num("interp.queens_ms", tracer.medianMs("interp.queens"));
    out.num("interp.wordfreq_ms", tracer.medianMs("interp.wordfreq"));
    out.num("interp.wordcount_ms", tracer.medianMs("interp.wordcount"));
    out.num("interp.refine_ms", tracer.medianMs("interp.refine"));
    out.num("interp.evals", reg.counter("interp.evals") / ops);
    const double pooled = reg.counter("kernel.frames.pooled");
    out.num("kernel.frames.pool_ratio",
            ratio(pooled, pooled + reg.counter("kernel.frames.allocated")));
    const double hits = reg.counter("kernel.arena.hits");
    out.num("kernel.arena.hit_ratio", ratio(hits, hits + reg.counter("kernel.arena.misses")));
    double vmDispatches = reg.counter("vm.dispatches") / ops;

    // The same op on the backend users do not get by default, while both
    // backends exist (ROADMAP item 2's gate compares the two).
    const Backend other = backend == Backend::kVm ? Backend::kTree : Backend::kVm;
    out.str("other_backend", other == Backend::kVm ? "vm" : "tree");
    System otherSys(in, other, tracer);
    RegistryDelta otherReg;
    otherReg.before = congen::obs::Registry::global().snapshot();
    const Window ow = measure(otherSys, in, tracer, std::max(1.0, args.seconds / 4));
    otherReg.after = congen::obs::Registry::global().snapshot();
    if (ow.failed != 0) out.fail("other-backend op result mismatch");
    out.num("interp.other_backend_op_ms", median(ow.opMs));
    if (other == Backend::kVm) {
      vmDispatches = otherReg.counter("vm.dispatches") / static_cast<double>(ow.opMs.size());
    }
    out.num("vm.dispatches", vmDispatches);

    frontendLayers(in, tracer, out);
    for (int r = 0; r < 30; ++r) {
      Interpreter fresh;
      Tracer::Scope span(tracer, "interp.load.probe");
      for (const auto& src : in.sources) fresh.load(src);
    }
    out.num("interp.load_us", tracer.medianMs("interp.load.probe") * 1e3);
    if (!args.traceOut.empty() && !tracer.write(args.traceOut)) out.fail("cannot write spans");
  }
  out.num("peak_rss_mb", procStatusMb("self", "VmHWM"));
  recordProcessStats(args, out);
}

}  // namespace perfbench
