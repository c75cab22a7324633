// pipe.hpp — the multithreaded generator proxy (`|> e`, Section III.B).
//
// A pipe is "a generator proxy for a co-expression that runs in a
// separate thread and iterates until failure, and that uses a blocking
// channel for the communication of results":
//
//   |>e → new Iterator() { next() { new Thread { run() {
//      c=|<>e; while (!fail) { out.put(@c); }}}.start() }}
//
// The producer drives the co-expression on a pool thread, handing its
// results to a bounded SpscRing (one producer, one consumer: exactly the
// ring's contract) in batches of at most min(64, capacity) — one
// protocol for every pipe, which at capacity 1 publishes each value as
// it is produced; activation (@) takes from the ring. The ring stays
// private to the pipe: nothing else can put, take or close it, so the
// producer's close at end-of-stream and ~Pipe's close on the consumer's
// side are its only closes. Bounding the capacity throttles the
// producer. Destroying a pipe closes the ring, which makes the
// producer's flush fail so an abandoned pipe can never deadlock a
// worker. A capacity-1 pipe over a singleton expression is a future.
//
// Structured cancellation (see cancel.hpp): every pipe owns a
// StopSource, and every queue wait on either side uses that pipe's own
// token. Cross-pipe propagation is purely source-to-token linking —
// cancelWith() makes this pipe a child of another token, and a pipe
// created *inside* a producer body links itself under the ambient
// CancelScope automatically, so cancelling a downstream consumer
// unblocks every upstream producer within one queue operation.
//
// Failure containment: a producer-side run-time error (IconError) is
// stored, the pipe's own token is stopped (cascading to linked upstream
// pipes), and the error re-surfaces exactly once from the consumer's
// activate() after the delivered prefix drains. The consumer
// distinguishes containment from abandonment: a cancelled take with a
// pending producer error falls back to plain (non-cancellable) drains of
// the already-closed queue, so the flushed prefix is never lost to the
// pipe's own error-triggered stop. Any non-IconError
// producer exception is wrapped into the typed IconError 801 (injected
// test faults pass through verbatim so the stress suite can assert on
// them). After the rethrow — or after cancellation — the pipe is
// *finished*: further activations deterministically fail (nullopt)
// without touching the dead queue.
#pragma once

#include <exception>
#include <iosfwd>
#include <vector>

#include "concur/cancel.hpp"
#include "concur/spsc_ring.hpp"
#include "concur/thread_pool.hpp"
#include "kernel/coexpression.hpp"

namespace congen {

class Pipe final : public CoExpression {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  /// Every pipe is bounded: a requested capacity is clamped into
  /// [1, kMaxCapacity] (0 becomes 1). The ring pre-sizes its slot array,
  /// so the cap also bounds the memory one pipe can commit up front.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

  /// Create and immediately start producing on a pool thread.
  /// `capacity` goes through the governor's pipe-depth clamp, then into
  /// [1, kMaxCapacity].
  Pipe(GenFactory factory, std::size_t capacity, ThreadPool& pool);
  ~Pipe() override;

  static Rc<Pipe> create(GenFactory factory,
                         std::size_t capacity = kDefaultCapacity,
                         ThreadPool& pool = ThreadPool::global()) {
    return makeRc<Pipe>(std::move(factory), capacity, pool);
  }

  /// Activation = take from the output channel. A run-time error raised
  /// inside the producer is re-thrown here, on the consumer's thread,
  /// exactly once; afterwards the pipe is finished and activation fails.
  std::optional<Value> activate() override;

  /// Deadline-bounded activation: fails once `deadline` passes with no
  /// result available, WITHOUT finishing the pipe — a timed-out pipe can
  /// be re-activated (the deadline bounds waiting, not computation).
  std::optional<Value> activateUntil(std::chrono::steady_clock::time_point deadline) override;

  /// Request cancellation: wakes the producer out of its current queue
  /// operation (and, through linked sources, every upstream producer);
  /// the consumer side observes end-of-stream. Idempotent.
  void cancel() {
    if (obs::metricsEnabled()) [[unlikely]] {
      obs::PipeStats::get().cancellations.add(1);
    }
    state_->source.requestStop();
  }

  [[nodiscard]] bool cancelRequested() const noexcept { return state_->source.stopRequested(); }

  /// This pipe's own cancellation token — the one every queue wait on
  /// this pipe uses, and the linking point for upstream stages.
  [[nodiscard]] CancelToken cancelToken() const noexcept { return state_->source.token(); }

  /// Link this pipe under `token`: when `token` is cancelled, this pipe
  /// is cancelled too (synchronously). The pipeline layer links each
  /// upstream stage under its downstream consumer's token.
  void cancelWith(const CancelToken& token) { state_->source.linkTo(token); }

  /// ^p: a fresh pipe over a fresh environment copy.
  [[nodiscard]] CoExprPtr refreshed() const override;

  /// Read-only view of the output channel, safe from any thread. The
  /// paper exposes the queue "as a public field to permit further
  /// manipulation" (Section III.B); here the producer task and the
  /// activation site hold its only two sides, so a view is all that is
  /// left to share.
  [[nodiscard]] std::size_t capacity() const noexcept { return state_->queue.capacity(); }
  /// Values buffered in the channel (approximate while both sides run).
  [[nodiscard]] std::size_t size() const noexcept { return state_->queue.size(); }
  /// Whether the channel is closed: end-of-stream, cancel or abandonment.
  [[nodiscard]] bool closed() const noexcept { return state_->queue.closed(); }

  /// Diagnostic dump of every live pipe in the process (queue depth,
  /// close/cancel flags, results delivered) — the payload of the
  /// congen-run --timeout watchdog, so a hung pipeline fails fast with
  /// state instead of eating a CI job limit.
  static void dumpAll(std::ostream& os);

 private:
  /// State shared with the producer task; outlives the Pipe if the
  /// consumer abandons it mid-stream.
  struct State {
    explicit State(std::size_t capacity) : queue(capacity) {}
    SpscRing<Value> queue;
    StopSource source;              // the pipe's cancellation channel
    std::exception_ptr error;       // producer-side run-time error
    std::mutex errorMutex;
  };

  std::optional<Value> step(QueueDeadline deadline);
  [[nodiscard]] bool producerErrorPending() const;

  // First member: the pipe quota must trip (812) before the queue is
  // allocated or a producer submitted. The base CoExpression already
  // charged the co-expression budget — a pipe is one, and counts there
  // too.
  governor::PipeCharge quotaCharge_;
  // The ring's capacity is the one resolved value (see boundedCapacity
  // in pipe.cpp): the hand-off cap and refreshed() read it back from the
  // ring, so a concurrent setquota("pipedepth") cannot make them disagree.
  std::shared_ptr<State> state_;
  ThreadPool* pool_;
  // produced_/finished_ are relaxed atomics solely so the watchdog's
  // dumpAll can read them from another thread; there is no ordering
  // requirement (single consumer).
  std::atomic<std::size_t> produced_{0};
  std::atomic<bool> finished_{false};
  // Consumer-side prefetch: activate() refills this from takeUpToFor()
  // so a burst of buffered results costs one index publication, not one
  // each.
  std::vector<Value> drained_;
  std::size_t drainedPos_ = 0;
};

/// Kernel node for `|> e`: yields a started pipe once per cycle.
GenPtr makePipeCreateGen(GenFactory bodyFactory, std::size_t capacity = Pipe::kDefaultCapacity,
                         ThreadPool& pool = ThreadPool::global());

/// A future: a capacity-1 pipe computing a single value in the
/// background; get() blocks for the result.
///
/// Failure vs error are distinguishable, matching Icon: get() returns
/// nullopt when the expression *failed* (produced no value), and
/// re-throws a producer-side run-time error (IconError) — on the first
/// AND on every subsequent call, so a caller that observes the error
/// once cannot mistake the future for a mere failure later.
class FutureValue {
 public:
  explicit FutureValue(GenFactory factory, ThreadPool& pool = ThreadPool::global());

  /// Block until the value is available; nullopt if the expression
  /// failed; re-throws (every time) if it errored.
  std::optional<Value> get();

 private:
  Rc<Pipe> pipe_;
  std::optional<Value> cached_;
  std::exception_ptr error_;
  bool resolved_ = false;
};

}  // namespace congen
