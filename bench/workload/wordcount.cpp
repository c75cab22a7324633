#include "wordcount.hpp"

#include <cmath>
#include <random>
#include <thread>

namespace congen::wc {

// ---------------------------------------------------------------------
// corpus & compute nodes
// ---------------------------------------------------------------------

std::vector<std::string> makeCorpus(std::size_t lines, std::size_t wordsPerLine,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::uniform_int_distribution<std::size_t> wordLen(3, 9);
  std::uniform_int_distribution<std::size_t> letter(0, sizeof(kAlphabet) - 2);
  std::vector<std::string> out;
  out.reserve(lines);
  for (std::size_t i = 0; i < lines; ++i) {
    std::string line;
    for (std::size_t w = 0; w < wordsPerLine; ++w) {
      if (w) line += ' ';
      const std::size_t len = wordLen(rng);
      for (std::size_t k = 0; k < len; ++k) line += kAlphabet[letter(rng)];
    }
    out.push_back(std::move(line));
  }
  return out;
}

BigInt wordToNumber(const std::string& word) { return BigInt::fromString(word, 36); }

double hashLight(const BigInt& n) { return std::sqrt(n.toDouble()); }

double hashHeavy(const BigInt& n) {
  // Deterministic heavy variant: transcendental churn plus a probable-
  // prime search seeded by the word's value — the Math/BigInteger
  // workload mix of Section VII, calibrated to ~80x hashLight.
  double x = hashLight(n);
  for (int i = 0; i < 16; ++i) {
    x = std::sin(x) + std::cos(x * 0.5) + std::atan(x) + 1.0000001;
  }
  const BigInt probe = (n % BigInt{1000003}) + BigInt{1 << 18};
  const BigInt prime = probe.nextProbablePrime();
  return hashLight(n) + std::fmod(x, 1.0) * 1e-9 + static_cast<double>(prime.isOdd() ? 0 : 1);
}

namespace {

double hashOf(const BigInt& n, const Params& p) { return p.heavy ? hashHeavy(n) : hashLight(n); }

std::vector<std::string> splitWords(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// native suite
// ---------------------------------------------------------------------

double nativeSequential(const std::vector<std::string>& lines, const Params& p) {
  double total = 0;
  for (const auto& line : lines) {
    for (const auto& word : splitWords(line)) total += hashOf(wordToNumber(word), p);
  }
  return total;
}

double nativePipeline(const std::vector<std::string>& lines, const Params& p) {
  // Producer: split + wordToNumber. Consumer (this thread): hash + sum.
  SpscRing<BigInt> queue(p.queueCapacity);
  std::jthread producer([&] {
    for (const auto& line : lines) {
      for (const auto& word : splitWords(line)) {
        if (!queue.put(wordToNumber(word))) return;
      }
    }
    queue.close();
  });
  double total = 0;
  while (auto n = queue.take()) total += hashOf(*n, p);
  return total;
}

namespace {

/// Lines chunked into [begin, end) index ranges.
std::vector<std::pair<std::size_t, std::size_t>> chunkRanges(std::size_t n, std::size_t chunk) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    out.emplace_back(begin, std::min(n, begin + chunk));
  }
  return out;
}

}  // namespace

double nativeDataParallel(const std::vector<std::string>& lines, const Params& p) {
  const auto ranges = chunkRanges(lines.size(), p.chunkSize);
  std::vector<std::vector<double>> hashes(ranges.size());
  {
    std::vector<std::jthread> workers;
    workers.reserve(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      workers.emplace_back([&, i] {
        auto& out = hashes[i];
        for (std::size_t k = ranges[i].first; k < ranges[i].second; ++k) {
          for (const auto& word : splitWords(lines[k])) {
            out.push_back(hashOf(wordToNumber(word), p));
          }
        }
      });
    }
  }  // join
  // Serial reduction over the flattened mapped values.
  double total = 0;
  for (const auto& chunk : hashes) {
    for (const double h : chunk) total += h;
  }
  return total;
}

double nativeMapReduce(const std::vector<std::string>& lines, const Params& p) {
  const auto ranges = chunkRanges(lines.size(), p.chunkSize);
  std::vector<double> partial(ranges.size(), 0.0);
  {
    std::vector<std::jthread> workers;
    workers.reserve(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      workers.emplace_back([&, i] {
        double sum = 0;
        for (std::size_t k = ranges[i].first; k < ranges[i].second; ++k) {
          for (const auto& word : splitWords(lines[k])) sum += hashOf(wordToNumber(word), p);
        }
        partial[i] = sum;
      });
    }
  }  // join
  double total = 0;
  for (const double s : partial) total += s;
  return total;
}

// ---------------------------------------------------------------------
// junicon suite — the programs of Fig. 3 in the form congenc emits
// ---------------------------------------------------------------------

namespace {

/// Shared generator-function definitions of the WordCount "class".
struct JuniconWordCount {
  Value lines;       // host data: the static String[] lines of Fig. 3
  ProcPtr readLines;  // def readLines() { suspend ! lines; }
  ProcPtr splitWordsProc;  // def splitWords(line) { suspend ! split(line); }
  ProcPtr w2n;        // native wordToNumber
  ProcPtr hash;       // native hashNumber (light or heavy)
  ProcPtr hashWords;  // def hashWords(line) { suspend hash(w2n(!splitWords(line))); }
  ProcPtr sumHash;    // def sumHash(sofar, h) { return sofar + h; }

  JuniconWordCount(const std::vector<std::string>& corpus, const Params& p) {
    auto list = ListImpl::create();
    for (const auto& line : corpus) list->put(Value::string(line));
    lines = Value::list(list);

    const Value linesValue = lines;
    readLines = ProcImpl::create("readLines", [linesValue](std::vector<Value>) -> GenPtr {
      return BodyRootGen::create(
          SuspendGen::create(PromoteGen::create(ConstGen::create(linesValue))));
    });

    // def splitWords(line) { return split(line); } — the word list; call
    // sites promote it with ! (Fig. 3's `! splitWords(line)`).
    ProcPtr split = builtins::lookup("split");
    splitWordsProc = ProcImpl::create("splitWords", [split](std::vector<Value> args) -> GenPtr {
      const Value line = args.empty() ? Value::null() : args[0];
      return BodyRootGen::create(ReturnGen::create(
          makeInvokeGen(ConstGen::create(Value::proc(split)), {ConstGen::create(line)})));
    });

    w2n = builtins::makeNative("wordToNumber", [](std::vector<Value>& args) -> std::optional<Value> {
      return Value::integer(wordToNumber(args.at(0).requireString("word")));
    });
    const bool heavy = p.heavy;
    hash = builtins::makeNative("hashNumber", [heavy](std::vector<Value>& args) -> std::optional<Value> {
      const BigInt n = args.at(0).requireBigInt("hashNumber");
      return Value::real(heavy ? hashHeavy(n) : hashLight(n));
    });

    const ProcPtr splitWordsLocal = splitWordsProc;
    const ProcPtr w2nLocal = w2n;
    const ProcPtr hashLocal = hash;
    hashWords = ProcImpl::create("hashWords", [splitWordsLocal, w2nLocal,
                                               hashLocal](std::vector<Value> args) -> GenPtr {
      const Value line = args.empty() ? Value::null() : args[0];
      return BodyRootGen::create(SuspendGen::create(makeInvokeGen(
          ConstGen::create(Value::proc(hashLocal)),
          {makeInvokeGen(ConstGen::create(Value::proc(w2nLocal)),
                         {PromoteGen::create(makeInvokeGen(
                             ConstGen::create(Value::proc(splitWordsLocal)),
                             {ConstGen::create(line)}))})})));
    });

    sumHash = builtins::makeNative("sumHash", [](std::vector<Value>& args) -> std::optional<Value> {
      return ops::add(args.at(0), args.at(1));
    });
  }

  /// readLines() as an invocation generator.
  [[nodiscard]] GenPtr readLinesGen() const {
    return makeInvokeGen(ConstGen::create(Value::proc(readLines)), {});
  }
};

double drainReal(const GenPtr& gen) {
  double total = 0;
  while (auto v = gen->nextValue()) total += v->requireReal("hash");
  return total;
}

}  // namespace

double juniconSequential(const std::vector<std::string>& lines, const Params& p) {
  JuniconWordCount wcst(lines, p);
  // hashNumber( wordToNumber( ! splitWords( readLines() ) ) )
  auto gen = makeInvokeGen(
      ConstGen::create(Value::proc(wcst.hash)),
      {makeInvokeGen(ConstGen::create(Value::proc(wcst.w2n)),
                     {PromoteGen::create(makeInvokeGen(
                         ConstGen::create(Value::proc(wcst.splitWordsProc)),
                         {wcst.readLinesGen()}))})});
  return drainReal(gen);
}

double juniconPipeline(const std::vector<std::string>& lines, const Params& p) {
  JuniconWordCount wcst(lines, p);
  // hashNumber( ! ( |> wordToNumber( ! splitWords(readLines()) ) ) )
  auto pipeBody = [&wcst]() -> GenPtr {
    return makeInvokeGen(ConstGen::create(Value::proc(wcst.w2n)),
                         {PromoteGen::create(makeInvokeGen(
                             ConstGen::create(Value::proc(wcst.splitWordsProc)),
                             {wcst.readLinesGen()}))});
  };
  auto gen = makeInvokeGen(
      ConstGen::create(Value::proc(wcst.hash)),
      {PromoteGen::create(makePipeCreateGen(pipeBody, p.queueCapacity, ThreadPool::global()))});
  return drainReal(gen);
}

double juniconDataParallel(const std::vector<std::string>& lines, const Params& p) {
  JuniconWordCount wcst(lines, p);
  DataParallel dp(static_cast<std::int64_t>(p.chunkSize), p.queueCapacity, ThreadPool::global());
  // every (c = chunk(readLines)) |> hashWords(!c), then serial summation
  // over the flattened sequence — the "split out the reduction" variant.
  auto gen = dp.mapFlat(wcst.hashWords, [&wcst] { return wcst.readLinesGen(); });
  return drainReal(gen);
}

double juniconMapReduce(const std::vector<std::string>& lines, const Params& p) {
  JuniconWordCount wcst(lines, p);
  DataParallel dp(static_cast<std::int64_t>(p.chunkSize), p.queueCapacity, ThreadPool::global());
  auto gen = dp.mapReduce(wcst.hashWords, [&wcst] { return wcst.readLinesGen(); }, wcst.sumHash,
                          Value::real(0.0));
  return drainReal(gen);  // sum of per-chunk reductions
}

double referenceHash(const std::vector<std::string>& lines, const Params& p) {
  return nativeSequential(lines, p);
}

}  // namespace congen::wc
