#include "concur/pipe.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <set>

#include "obs/runtime_stats.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/error.hpp"
#include "runtime/governor.hpp"

namespace congen {

namespace {

// Live-pipe registry backing Pipe::dumpAll. Function-local and
// intentionally leaked so pipes destroyed during static teardown never
// race a destructed set.
struct PipeRegistry {
  std::mutex m;
  std::set<const Pipe*>* pipes = new std::set<const Pipe*>;
};

PipeRegistry& registry() {
  static PipeRegistry* r = new PipeRegistry;
  return *r;
}

void registerPipe(const Pipe* p) {
  auto& r = registry();
  std::lock_guard lock(r.m);
  r.pipes->insert(p);
}

void unregisterPipe(const Pipe* p) {
  auto& r = registry();
  std::lock_guard lock(r.m);
  r.pipes->erase(p);
}

/// The most values one producer flush publishes or one activation
/// drains: min(64, capacity), so a flush always fits the ring. The
/// bound is fixed; there is no setting.
std::size_t handoffCap(const SpscRing<Value>& queue) {
  return std::min<std::size_t>(64, queue.capacity());
}

/// The producer half of the hand-off. Runs on a pool thread, draining
/// the co-expression body into a local buffer and publishing whole
/// segments with one putAllFor per flush. Each round's goal is the
/// ring's spare capacity, clamped to [1, cap]: the producer runs at most
/// capacity + 1 values ahead of the consumer, and a round never buffers
/// more than one flush can publish. A round ends early when
/// waitingConsumers() reports a parked taker — it is asleep, so further
/// values would only add latency. A consumer that is still spinning
/// (SpscRing's spin before park) is not parked: the round keeps filling,
/// and the spin picks the flush up without a wake syscall on either
/// side. A capacity-1 pipe (a future or mailbox) has cap 1: every goal
/// is 1, so each value is published as it is produced — the rendezvous
/// of Section III.B, with no separate path.
///
/// Cancellation: the generation loop checks the token between results
/// (one relaxed load) and every flush waits cancellably, so a cancelled
/// pipe's producer returns within one queue operation even with the
/// queue full.
void runProducer(SpscRing<Value>& queue, Gen& body, const CancelToken& token) {
  const std::size_t cap = handoffCap(queue);
  std::vector<Value> buffer;
  std::size_t accepted = 0;
  bool open = true;
  while (open && !token.cancelled()) {
    const std::size_t size = queue.size();
    const std::size_t spare = queue.capacity() > size ? queue.capacity() - size : 0;
    const std::size_t goal = std::clamp<std::size_t>(spare, 1, cap);
    try {
      while (buffer.size() < goal) {
        auto v = body.nextValue();
        if (!v) {
          open = false;  // source exhausted
          break;
        }
        buffer.push_back(std::move(*v));
        if (token.cancelled()) {
          open = false;
          break;
        }
        if (queue.waitingConsumers() > 0) break;  // a parked taker: flush now
      }
    } catch (...) {
      // Every result generated before an error reaches the consumer
      // ahead of it: flush the intact buffer (best effort) before letting
      // the error propagate.
      try {
        if (!buffer.empty()) queue.putAllFor(buffer, accepted, token);
      } catch (...) {
      }
      throw;
    }
    if (buffer.empty()) break;
    CONGEN_FAULT_POINT(PipeBatchFlush);
    if (queue.putAllFor(buffer, accepted, token) != QueueOpStatus::kOk) {
      break;  // consumer abandoned or cancelled us
    }
    if (obs::metricsEnabled()) [[unlikely]] {
      obs::PipeStats::get().batchesFlushed.add(1);
    }
  }
}

void countErrorStored() {
  if (obs::metricsEnabled()) [[unlikely]] {
    obs::PipeStats::get().errorsStored.add(1);
  }
}

/// The one place a requested capacity is resolved: the ambient
/// governor's pipe-depth clamp (graceful degradation — see
/// governor.hpp), then the [1, Pipe::kMaxCapacity] bound every pipe
/// keeps.
std::size_t boundedCapacity(std::size_t capacity) {
  if (const auto* gov = governor::current()) capacity = gov->clampPipeCapacity(capacity);
  return std::clamp<std::size_t>(capacity, 1, Pipe::kMaxCapacity);
}

}  // namespace

Pipe::Pipe(GenFactory factory, std::size_t capacity, ThreadPool& pool)
    : CoExpression(std::move(factory)),
      state_(std::make_shared<State>(boundedCapacity(capacity))),
      pool_(&pool) {
  // A pipe created inside a producer body (the ambient CancelScope is
  // that producer's token) hangs itself under it, so cancelling the
  // downstream consumer reaches lazily-created inner pipes too.
  if (auto ambient = CancelScope::current(); ambient.canBeCancelled()) {
    state_->source.linkTo(ambient);
  }
  // The body was built (and the shadowed environment copied) eagerly on
  // this thread by the CoExpression base. The producer captures only the
  // shared state and that body — never the Pipe itself — so
  // consumer-side destruction cannot race it.
  pool.submit([state = state_, body = takeBody(), gov = governor::currentShared()] {
    const CancelToken token = state->source.token();
    // Make this pipe's token ambient for the body: co-expressions and
    // pipes the body creates while running pick it up via the scope.
    CancelScope scope(token);
    // The creator's governor travels with the work: the body's fuel,
    // heap, and child pipes/co-expressions charge the same budgets on
    // this pool thread as they would on the creating one. (ScopedGovernor
    // never throws — a pending-batch trip re-fires at the body's next
    // charge site, inside the try below.)
    governor::ScopedGovernor governed(gov);
    obs::TraceSpan span("pipe.producer", "pipe");
    try {
      runProducer(state->queue, *body, token);
    } catch (const IconError&) {
      // Typed run-time error: forward verbatim, then cancel everything
      // feeding this stage. Ordering matters — store the error BEFORE
      // requesting stop so the consumer never observes the cancel
      // without the cause.
      {
        std::lock_guard lock(state->errorMutex);
        state->error = std::current_exception();
      }
      countErrorStored();
      state->source.requestStop();
    } catch (const testing::InjectedFault&) {
      // Injected test faults cross the pipe unwrapped so the stress
      // suite can assert on the precise fault type.
      {
        std::lock_guard lock(state->errorMutex);
        state->error = std::current_exception();
      }
      countErrorStored();
      state->source.requestStop();
    } catch (const std::exception& e) {
      {
        std::lock_guard lock(state->errorMutex);
        state->error = std::make_exception_ptr(errStageFailed(e.what()));
      }
      countErrorStored();
      state->source.requestStop();
    } catch (...) {
      {
        std::lock_guard lock(state->errorMutex);
        state->error = std::make_exception_ptr(errStageFailed("unknown exception"));
      }
      countErrorStored();
      state->source.requestStop();
    }
    state->queue.close();  // end-of-stream
  });
  // Register only after submit succeeded: a throwing ctor must not leave
  // a dangling registry entry.
  registerPipe(this);
  if (obs::metricsEnabled()) [[unlikely]] {
    auto& s = obs::PipeStats::get();
    s.created.add(1);
    s.live.add(1);
  }
}

Pipe::~Pipe() {
  unregisterPipe(this);
  state_->queue.close();
  if (obs::metricsEnabled()) [[unlikely]] {
    obs::PipeStats::get().live.sub(1);
  }
}

std::optional<Value> Pipe::activate() { return step(QueueDeadline{}); }

std::optional<Value> Pipe::activateUntil(std::chrono::steady_clock::time_point deadline) {
  return step(QueueDeadline{deadline});
}

std::optional<Value> Pipe::step(QueueDeadline deadline) {
  // A finished pipe (error already surfaced, or cancelled, or drained)
  // fails deterministically forever — it never revisits the dead queue,
  // so an activation after a consumed producer error cannot block or
  // re-observe stale state.
  if (finished_.load(std::memory_order_relaxed)) return std::nullopt;
  const bool metrics = obs::metricsEnabled();
  const CancelToken token = state_->source.token();
  if (drainedPos_ >= drained_.size()) {
    drainedPos_ = 0;
    const std::size_t cap = handoffCap(state_->queue);
    const auto status = state_->queue.takeUpToFor(drained_, cap, token, deadline);
    if (status == QueueOpStatus::kTimedOut) return std::nullopt;  // re-activatable
    if (status == QueueOpStatus::kCancelled && producerErrorPending()) {
      // Containment, not abandonment: the stop came from this pipe's
      // own failing producer, which flushed its delivered prefix and
      // is closing the queue. Drain with the plain (non-cancellable)
      // op so the prefix reaches the consumer before the error does.
      drained_ = state_->queue.takeUpTo(cap);
    }
  }
  if (drainedPos_ < drained_.size()) {
    produced_.fetch_add(1, std::memory_order_relaxed);
    if (metrics) [[unlikely]] obs::PipeStats::get().activations.add(1);
    return std::move(drained_[drainedPos_++]);
  }
  // Drained or cancelled: the stream is over for good. Surface a
  // producer-side error on the consumer thread, once.
  finished_.store(true, std::memory_order_relaxed);
  std::exception_ptr error;
  {
    std::lock_guard lock(state_->errorMutex);
    error = state_->error;
    state_->error = nullptr;
  }
  if (error) std::rethrow_exception(error);
  return std::nullopt;
}

bool Pipe::producerErrorPending() const {
  std::lock_guard lock(state_->errorMutex);
  return state_->error != nullptr;
}

CoExprPtr Pipe::refreshed() const {
  return Pipe::create(factory(), state_->queue.capacity(), *pool_);
}

void Pipe::dumpAll(std::ostream& os) {
  // Take the registry snapshot BEFORE the per-pipe walk: snapshot() only
  // reads relaxed atomics (never the pipe registry lock), so the two
  // sections cannot deadlock against a pipe being constructed, and the
  // aggregate header is at most a few in-flight operations away from the
  // per-pipe lines below it.
  const auto snap = obs::Registry::global().snapshot();
  auto& r = registry();
  std::lock_guard lock(r.m);
  os << "=== live pipes: " << r.pipes->size() << " ===\n";
  if (obs::metricsEnabled()) {
    os << "  aggregate: created=" << snap.counterValue("pipe.created")
       << " live=" << snap.gaugeValue("pipe.live")
       << " activations=" << snap.counterValue("pipe.activations")
       << " batchesFlushed=" << snap.counterValue("pipe.batches_flushed")
       << " cancellations=" << snap.counterValue("pipe.cancellations")
       << " errorsStored=" << snap.counterValue("pipe.errors_stored")
       << " queueDepth=" << snap.gaugeValue("queue.depth")
       << " poolThreadsLive=" << snap.gaugeValue("pool.threads_live") << "\n";
  }
  for (const Pipe* p : *r.pipes) {
    const auto& q = p->state_->queue;
    bool hasError = false;
    {
      std::lock_guard el(p->state_->errorMutex);
      hasError = p->state_->error != nullptr;
    }
    os << "  pipe@" << static_cast<const void*>(p) << " queued=" << q.size() << "/" << q.capacity()
       << " closed=" << (q.closed() ? 1 : 0)
       << " cancelled=" << (p->cancelRequested() ? 1 : 0)
       << " finished=" << (p->finished_.load(std::memory_order_relaxed) ? 1 : 0)
       << " delivered=" << p->produced_.load(std::memory_order_relaxed)
       << " pendingError=" << (hasError ? 1 : 0) << "\n";
  }
}

GenPtr makePipeCreateGen(GenFactory bodyFactory, std::size_t capacity, ThreadPool& pool) {
  return CoExprCreateGen::create(std::move(bodyFactory),
                                 [capacity, &pool](GenFactory f) -> CoExprPtr {
                                   return Pipe::create(std::move(f), capacity, pool);
                                 });
}

FutureValue::FutureValue(GenFactory factory, ThreadPool& pool)
    : pipe_(Pipe::create(std::move(factory), 1, pool)) {}

std::optional<Value> FutureValue::get() {
  if (!resolved_) {
    try {
      cached_ = pipe_->activate();
    } catch (...) {
      // Cache the error so every get() reports it — without this, the
      // first get() consumed the error and later calls looked like a
      // plain failure.
      error_ = std::current_exception();
      resolved_ = true;
      throw;
    }
    resolved_ = true;
  }
  if (error_) std::rethrow_exception(error_);
  return cached_;
}

}  // namespace congen
