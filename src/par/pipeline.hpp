// pipeline.hpp — parallel pipelining from chained pipes.
//
// The pipeline model of Fig. 2: `f(! |> s)` — each stage encapsulates the
// entire stream and runs in its own thread, consuming the previous
// stage's pipe and feeding its own. Builder for expressions like
//
//   x * ! |> factorial(! |> sqrt(y))         (Section III.B)
//
// where the output of each stage is the input of the next, synchronized
// by the pipes' bounded blocking queues.
#pragma once

#include <vector>

#include "concur/pipe.hpp"
#include "runtime/proc.hpp"

namespace congen {

/// A built pipeline plus its cancellation handle: requestStop() on
/// `stop` cascades through every stage's pipe (the last stage is linked
/// under stop's token, and each upstream stage under its downstream
/// consumer's token), so all producers unblock within one queue
/// operation.
struct CancellablePipeline {
  GenPtr gen;
  StopSource stop;
};

class Pipeline {
 public:
  explicit Pipeline(std::size_t pipeCapacity = Pipe::kDefaultCapacity,
                    ThreadPool& pool = ThreadPool::global())
      : capacity_(pipeCapacity), pool_(&pool) {}

  /// Append a stage: f is mapped (goal-directed invocation, so all of
  /// f's results per element join the stream) over the previous stage's
  /// output.
  Pipeline& stage(ProcPtr f) {
    stages_.push_back(std::move(f));
    return *this;
  }

  /// Assemble the chain over a source and return the generator of the
  /// final stage's results. Every stage, including the source, runs in
  /// its own pipe; the caller's thread only drains the last queue.
  [[nodiscard]] GenPtr build(GenFactory source) const;

  /// Like build(), but the final stage is consumed on the caller's
  /// thread instead of a pipe (n stages → n threads, matching the
  /// two-thread pipelines of the Fig. 6 benchmark when n = 2).
  [[nodiscard]] GenPtr buildLastInline(GenFactory source) const;

  /// build() with an external cancellation handle attached to the whole
  /// chain. Dropping the generator without draining it is also fine —
  /// requestStop() tears the stages down without waiting for the queues
  /// to drain.
  [[nodiscard]] CancellablePipeline buildCancellable(GenFactory source) const;

  [[nodiscard]] std::size_t depth() const noexcept { return stages_.size(); }

 private:
  [[nodiscard]] GenPtr chain(GenFactory source, bool lastInline, StopSource* stop) const;

  std::vector<ProcPtr> stages_;
  std::size_t capacity_;
  ThreadPool* pool_;
};

}  // namespace congen
