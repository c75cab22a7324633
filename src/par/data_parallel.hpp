// data_parallel.hpp — map-reduce built from concurrent generators.
//
// The DataParallel class of Fig. 4, in translated (kernel-API) form:
//
//   def chunk(e)         { ... suspend chunk; ... }
//   def mapReduce(f,s,r,i) {
//     every (c = chunk(<>s)) do {
//       t = |> { var x=i; every (x = r(x, f(!c) )); x };  tasks.add(t);
//     };
//     suspend ! (! tasks);
//   }
//
// chunk partitions the source stream into fixed-size lists; mapReduce
// spawns one pipe per chunk that folds the mapped values with the
// reduction function, then generates the per-chunk results *in order*
// ("subtly different from conventional map-reduce in that it enforces
// ordering between the results of the partitioned threads", Section III).
#pragma once

#include <cstdint>

#include "concur/pipe.hpp"
#include "kernel/gen.hpp"
#include "runtime/proc.hpp"

namespace congen {

/// Generator of chunks: each result is a list of up to `chunkSize`
/// consecutive source values; the final partial chunk is included.
GenPtr makeChunkGen(GenPtr source, std::int64_t chunkSize);

class DataParallel {
 public:
  explicit DataParallel(std::int64_t chunkSize = 1000,
                        std::size_t pipeCapacity = Pipe::kDefaultCapacity,
                        ThreadPool& pool = ThreadPool::global())
      : chunkSize_(chunkSize), pipeCapacity_(pipeCapacity), pool_(&pool) {}

  /// Bounded per-chunk retry with exponential backoff. When a chunk's
  /// pipe dies with an error, the chunk is re-run on a fresh
  /// co-expression copy (the body factory re-snapshots its environment)
  /// up to `maxRetries` times, sleeping backoffBaseMicros * 2^(attempt-1)
  /// between attempts; values the chunk already delivered are replayed
  /// and skipped so results stay exact and in order. Once the budget is
  /// exhausted, a single typed IconError 802 surfaces to the consumer.
  /// The default (0) keeps the historical behavior: the first error
  /// propagates verbatim.
  DataParallel& withRetry(int maxRetries, std::int64_t backoffBaseMicros = 100) {
    maxRetries_ = maxRetries;
    backoffBaseMicros_ = backoffBaseMicros;
    return *this;
  }

  /// mapReduce(f, s, r, i): one pipe per chunk folds r over f's results,
  /// and the returned generator yields the per-chunk reductions in chunk
  /// order. `f` and `r` are generator functions; each application
  /// contributes its full result sequence to the fold (f) or its first
  /// result (r), matching `every (x = r(x, f(!c)))`.
  [[nodiscard]] GenPtr mapReduce(ProcPtr f, GenFactory source, ProcPtr r, Value init) const;

  /// Data-parallel map without the reduction: one pipe per chunk maps f
  /// over the chunk's elements; results are concatenated in chunk order
  /// (the `every (c=chunk(s)) |> f(!c)` decomposition of Fig. 2). The
  /// caller performs any reduction serially — the "DataParallel" variant
  /// of the Fig. 6 benchmark suite.
  [[nodiscard]] GenPtr mapFlat(ProcPtr f, GenFactory source) const;

  [[nodiscard]] std::int64_t chunkSize() const noexcept { return chunkSize_; }

 private:
  std::int64_t chunkSize_;
  std::size_t pipeCapacity_;
  ThreadPool* pool_;
  int maxRetries_ = 0;
  std::int64_t backoffBaseMicros_ = 100;
};

}  // namespace congen
