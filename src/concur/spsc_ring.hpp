// spsc_ring.hpp — bounded lock-free single-producer/single-consumer ring.
//
// The paper models every `|> e` as exactly one producer (the pool thread
// driving the co-expression) feeding exactly one consumer (the activation
// site), which is precisely the topology a wait-free ring exploits: the
// producer owns `tail_`, the consumer owns `head_`, and an element
// crosses threads through one release store / one acquire load instead
// of a mutex and two condition variables. The transfer fast path takes
// no lock and performs no syscall; blocking is handled by futex parking
// (std::atomic-wait on non-Linux) that only the slow path touches.
//
// The ring is the pipe's blocking channel ("a blocking channel, or
// blocking queue, has put and take operations that wait until the queue
// of results is not full or not empty", Section III.B): scalar and bulk
// ops, the timed/cancellable bulk ops (putAllFor/takeUpToFor, the only
// ones a pipe uses) with QueueOpStatus precedence
// (kCancelled > transfer > kClosed > kTimedOut), close/drain semantics —
// closing releases both sides: put fails (so an abandoned pipe's
// producer can never deadlock) and take drains what is buffered before
// failing — and the exact conservation metrics of obs/runtime_stats.hpp.
// A capacity-1 ring is a single-assignment mailbox, the future/M-var of
// Section III.B. Memory-order audit lives in docs/INTERNALS.md,
// "Lock-free transport & work stealing"; the short version:
//
//  * publication:  producer writes slot, then `tail_.store(release)`;
//    consumer `tail_.load(acquire)`, then reads the slot. Symmetrically
//    for slot reuse via `head_`. These two edges are the only
//    synchronization the transferred data needs.
//  * parking: a waiter loads its sequence word, publishes its parked
//    flag, issues a seq_cst fence, re-checks the condition, and only
//    then waits on the sequence word. A waker (the opposite side,
//    close(), or a cancel callback) issues the matching seq_cst fence
//    after its state change and, if the parked flag is visible, bumps
//    the sequence word and futex-wakes it. Either the waker sees the
//    flag (and the bump invalidates the waiter's loaded sequence), or
//    the waiter's re-check sees the state change — the store-buffer
//    interleaving where both miss is forbidden by the fence pair, so a
//    wakeup can never be lost.
//
// THREADING CONTRACT: at most one thread calls the put-side ops and at
// most one thread calls the take-side ops at any moment (the sides may
// migrate threads only with external happens-before, exactly like a
// Pipe handed across stages). close(), cancel wakeups, size(), closed()
// and capacity() are safe from any thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#else
#include <thread>
#endif

#include "concur/cancel.hpp"
#include "concur/fault_injection.hpp"
#include "obs/runtime_stats.hpp"

namespace congen {

/// Outcome of a cancellable / deadline-bounded ring operation. The
/// precedence when several hold at once is kCancelled > element transfer
/// > kClosed > kTimedOut: cancellation is checked first so a cancelled
/// consumer stops within one operation even with elements buffered,
/// while a *closed* ring still drains (close means end-of-stream, not
/// abandonment).
enum class QueueOpStatus : std::uint8_t { kOk, kClosed, kCancelled, kTimedOut };

/// Absent deadline = wait indefinitely (cancellation/close still apply).
using QueueDeadline = std::optional<std::chrono::steady_clock::time_point>;

namespace spsc_detail {

inline constexpr QueueDeadline kNoDeadline{};

/// Wake every waiter parked on `w`. On Linux this is one FUTEX_WAKE
/// syscall; elsewhere it falls back to std::atomic::notify_all.
inline void wakeAll(std::atomic<std::uint32_t>& w) noexcept {
#if defined(__linux__)
  static_assert(sizeof(std::atomic<std::uint32_t>) == 4);
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&w), FUTEX_WAKE_PRIVATE, INT_MAX,
            nullptr, nullptr, 0);
#else
  w.notify_all();
#endif
}

/// Block until `w != expected`, a wake arrives, or `deadline` passes.
/// Returns false only on deadline expiry; spurious returns are fine —
/// every caller re-checks its exit conditions in a loop.
inline bool waitUntil(std::atomic<std::uint32_t>& w, std::uint32_t expected,
                      const QueueDeadline& deadline) noexcept {
#if defined(__linux__)
  for (;;) {
    if (w.load(std::memory_order_acquire) != expected) return true;
    struct timespec ts {};
    struct timespec* tsp = nullptr;
    if (deadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= *deadline) return false;
      const auto rel = std::chrono::duration_cast<std::chrono::nanoseconds>(*deadline - now);
      ts.tv_sec = static_cast<time_t>(rel.count() / 1000000000);
      ts.tv_nsec = static_cast<long>(rel.count() % 1000000000);
      tsp = &ts;
    }
    // FUTEX_WAIT measures its relative timeout against CLOCK_MONOTONIC,
    // matching the steady_clock deadline.
    const long rc = ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&w),
                              FUTEX_WAIT_PRIVATE, expected, tsp, nullptr, 0);
    if (rc == 0) return true;        // woken (possibly spuriously)
    if (errno == ETIMEDOUT) return false;
    if (errno == EINTR) continue;    // recompute the timeout and retry
    return true;                     // EAGAIN: the word already changed
  }
#else
  if (!deadline) {
    w.wait(expected, std::memory_order_acquire);
    return true;
  }
  // Portable timed fallback: bounded sleep-poll. Only the slow (already
  // blocked) path pays this; the transfer fast path never reaches here.
  while (w.load(std::memory_order_acquire) == expected) {
    if (std::chrono::steady_clock::now() >= *deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
#endif
}

#ifndef NDEBUG
/// Debug-build guard for the ring's 1P/1C contract: each side's ops
/// flip a busy flag for the duration of the call, so two threads
/// concurrently inside the same side — the UB `Pipe::queue()` warns
/// about — trip an assert with a pointed message instead of racing
/// silently. Relaxed on purpose: the guard must not add happens-before
/// edges that could hide the underlying race from TSan. Legal side
/// migration (external happens-before between old and new thread)
/// never overlaps, so the guard cannot misfire on it.
class SideGuard {
 public:
  explicit SideGuard(std::atomic<bool>& busy) noexcept : busy_(busy) {
    const bool wasBusy = busy_.exchange(true, std::memory_order_relaxed);
    assert(!wasBusy &&
           "SpscRing: concurrent calls on one side; a ring (and so Pipe::queue()) "
           "allows one producer thread and one consumer thread at a time");
    (void)wasBusy;
  }
  ~SideGuard() { busy_.store(false, std::memory_order_relaxed); }
  SideGuard(const SideGuard&) = delete;
  SideGuard& operator=(const SideGuard&) = delete;

 private:
  std::atomic<bool>& busy_;
};
#define CONGEN_SPSC_SIDE_GUARD(flag) ::congen::spsc_detail::SideGuard spscSideGuard_(flag)
#else
#define CONGEN_SPSC_SIDE_GUARD(flag) ((void)0)
#endif

}  // namespace spsc_detail

template <class T>
class SpscRing {
 public:
  /// `capacity` is honored exactly, 0 counting as 1 (the backing buffer
  /// rounds up to a power of two, but the full-test uses `capacity`, so
  /// a capacity-1000 ring throttles at 1000 elements). Pipe bounds it
  /// to at most Pipe::kMaxCapacity before it gets here.
  explicit SpscRing(std::size_t capacity) : bound_(capacity == 0 ? 1 : capacity) {
    std::size_t slots = 1;
    while (slots < bound_) slots <<= 1;
    slots_.resize(slots);
    mask_ = slots - 1;
    if (obs::metricsEnabled()) [[unlikely]] {
      obs::RingStats::get().created.add(1);
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Conservation accounting: elements still buffered at destruction
  /// were produced but never consumed — they count as dropped, and leave
  /// the aggregate depth gauge (see obs/runtime_stats.hpp). The
  /// destructor runs strictly after the last operation on either side,
  /// so the relaxed reads see the final indices.
  ~SpscRing() {
    const std::uint64_t remaining =
        tail_.load(std::memory_order_relaxed) - head_.load(std::memory_order_relaxed);
    if (obs::metricsEnabled() && remaining > 0) [[unlikely]] {
      auto& s = obs::QueueStats::get();
      s.droppedOnClose.add(remaining);
      s.depth.sub(static_cast<std::int64_t>(remaining));
    }
  }

  // ---- plain blocking ops ----------------------------------------------

  /// Blocking put; returns false if the ring is (or becomes) closed.
  /// True means the element was buffered. It is also delivered to a
  /// consumer that takes until failure when close() comes from the
  /// producer, or from the consumer after it stops taking; a close from
  /// a third thread that overlaps this put can leave an accepted element
  /// buffered after the consumer has already seen closed-and-empty
  /// (docs/INTERNALS.md §7).
  bool put(T v) {
    CONGEN_FAULT_POINT(QueuePut);
    CONGEN_SPSC_SIDE_GUARD(putBusy_);
    const bool metrics = obs::metricsEnabled();
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      if (spaceFor(t) == 0) {
        parkProducer(metrics);
        continue;
      }
      slots_[t & mask_] = std::move(v);
      tail_.store(t + 1, std::memory_order_release);
      if (metrics) [[unlikely]] countScalarPut();
      wakeConsumerIfParked();
      return true;
    }
  }

  /// Blocking take; drains remaining elements after close, then fails.
  std::optional<T> take() {
    CONGEN_FAULT_POINT(QueueTake);
    CONGEN_SPSC_SIDE_GUARD(takeBusy_);
    const bool metrics = obs::metricsEnabled();
    for (;;) {
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      if (availableAt(h) > 0) {
        T v = std::move(slots_[h & mask_]);
        head_.store(h + 1, std::memory_order_release);
        if (metrics) [[unlikely]] countScalarTake();
        wakeProducerIfParked();
        return v;
      }
      // Close-then-drain: observe closed_ (acquire) strictly after the
      // empty check, then re-load tail_ — any element published before
      // the close is visible to that re-load.
      if (closed_.load(std::memory_order_acquire)) {
        if (availableAt(h) > 0) continue;
        return std::nullopt;
      }
      parkConsumer(metrics);
    }
  }

  /// Bulk put: publishes as much of `batch` as fits per wakeup cycle,
  /// each group with a single release store. Returns how many elements
  /// were accepted; fewer than batch.size() means the ring closed
  /// mid-batch, and the accepted prefix is erased from `batch`.
  std::size_t putAll(std::vector<T>& batch) {
    CONGEN_FAULT_POINT(QueuePutAll);
    CONGEN_SPSC_SIDE_GUARD(putBusy_);
    if (batch.empty()) return 0;
    const bool metrics = obs::metricsEnabled();
    std::size_t accepted = 0;
    while (accepted < batch.size()) {
      if (closed_.load(std::memory_order_acquire)) break;
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      const std::size_t spare = spaceFor(t);
      if (spare == 0) {
        parkProducer(metrics);
        continue;
      }
      const std::size_t n = std::min(spare, batch.size() - accepted);
      publishFrom(batch, accepted, t, n, metrics);
      accepted += n;
    }
    batch.erase(batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(accepted));
    return accepted;
  }

  /// Bulk take: blocks until at least one element (or close), then pops
  /// up to `max` with a single release store of the new head. An empty
  /// result means closed-and-drained.
  std::vector<T> takeUpTo(std::size_t max) {
    CONGEN_FAULT_POINT(QueueTakeUpTo);
    CONGEN_SPSC_SIDE_GUARD(takeBusy_);
    std::vector<T> out;
    if (max == 0) return out;
    const bool metrics = obs::metricsEnabled();
    for (;;) {
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      const std::size_t avail = availableAt(h);
      if (avail > 0) {
        popInto(out, h, std::min(max, avail), metrics);
        return out;
      }
      if (closed_.load(std::memory_order_acquire)) {
        if (availableAt(h) > 0) continue;  // published before the close
        return out;
      }
      parkConsumer(metrics);
    }
  }

  // ---- cancellable / deadline-bounded ops ------------------------------
  //
  // Register-then-recheck protocol: the first wait cycle only registers
  // the cancel wakeup and returns so the caller re-checks its exit
  // conditions — a cancel landing before registration is otherwise lost.
  // The wakeup callback bumps both sequence words and futex-wakes both
  // sides; it touches only atomics, so the lock-order audit of cancel.hpp
  // is trivially satisfied (there is no lock).

  /// putAll() with cancellation and an optional deadline; `accepted`
  /// reports the published prefix (erased from `batch`).
  QueueOpStatus putAllFor(std::vector<T>& batch, std::size_t& accepted, const CancelToken& token,
                          QueueDeadline deadline = {}) {
    CONGEN_FAULT_POINT(QueuePutAll);
    CONGEN_FAULT_POINT(QueueTimedWait);
    CONGEN_SPSC_SIDE_GUARD(putBusy_);
    accepted = 0;
    if (batch.empty()) return QueueOpStatus::kOk;
    const bool metrics = obs::metricsEnabled();
    std::optional<CancelCallback> wake;
    QueueOpStatus status = QueueOpStatus::kOk;
    bool timedOut = false;
    while (accepted < batch.size()) {
      if (token.cancelled()) {
        status = QueueOpStatus::kCancelled;
        break;
      }
      if (closed_.load(std::memory_order_acquire)) {
        status = QueueOpStatus::kClosed;
        break;
      }
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      const std::size_t spare = spaceFor(t);
      if (spare > 0) {
        const std::size_t n = std::min(spare, batch.size() - accepted);
        publishFrom(batch, accepted, t, n, metrics);
        accepted += n;
        continue;
      }
      if (timedOut) {
        status = QueueOpStatus::kTimedOut;
        break;
      }
      if (registerWake(token, wake)) continue;
      timedOut = !parkProducerFor(token, deadline, metrics);
    }
    batch.erase(batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(accepted));
    return status;
  }

  /// takeUpTo() with cancellation and an optional deadline.
  QueueOpStatus takeUpToFor(std::vector<T>& out, std::size_t max, const CancelToken& token,
                            QueueDeadline deadline = {}) {
    CONGEN_FAULT_POINT(QueueTakeUpTo);
    CONGEN_FAULT_POINT(QueueTimedWait);
    CONGEN_SPSC_SIDE_GUARD(takeBusy_);
    out.clear();
    if (max == 0) return QueueOpStatus::kOk;
    const bool metrics = obs::metricsEnabled();
    std::optional<CancelCallback> wake;
    bool timedOut = false;
    for (;;) {
      if (token.cancelled()) return QueueOpStatus::kCancelled;
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      const std::size_t avail = availableAt(h);
      if (avail > 0) {
        popInto(out, h, std::min(max, avail), metrics);
        return QueueOpStatus::kOk;
      }
      if (closed_.load(std::memory_order_acquire)) {
        if (availableAt(h) > 0) continue;
        return QueueOpStatus::kClosed;
      }
      if (timedOut) return QueueOpStatus::kTimedOut;
      if (registerWake(token, wake)) continue;
      timedOut = !parkConsumerFor(token, deadline, metrics);
    }
  }

  // ---- non-blocking ops ------------------------------------------------

  /// Non-blocking put; false when full or closed.
  bool tryPut(T v) {
    CONGEN_FAULT_POINT(QueueTryPut);
    CONGEN_SPSC_SIDE_GUARD(putBusy_);
    if (closed_.load(std::memory_order_acquire)) return false;
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (spaceFor(t) == 0) return false;
    slots_[t & mask_] = std::move(v);
    tail_.store(t + 1, std::memory_order_release);
    if (obs::metricsEnabled()) [[unlikely]] countScalarPut();
    wakeConsumerIfParked();
    return true;
  }

  /// Non-blocking take; nullopt when empty.
  std::optional<T> tryTake() {
    CONGEN_FAULT_POINT(QueueTryTake);
    CONGEN_SPSC_SIDE_GUARD(takeBusy_);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (availableAt(h) == 0) return std::nullopt;
    T v = std::move(slots_[h & mask_]);
    head_.store(h + 1, std::memory_order_release);
    if (obs::metricsEnabled()) [[unlikely]] countScalarTake();
    wakeProducerIfParked();
    return v;
  }

  // ---- lifecycle / introspection ---------------------------------------

  /// Close the channel: the producer's put fails, the consumer drains
  /// what is buffered and then fails. Idempotent, callable from any
  /// thread (only atomics are touched). Only a close from the producer,
  /// or from the consumer after it stops taking, keeps "put returned
  /// true" equal to "take delivered it"; see put().
  void close() {
    CONGEN_FAULT_POINT(QueueClose);
    closed_.store(true, std::memory_order_seq_cst);
    bumpAndWake(notFullSeq_);
    bumpAndWake(notEmptySeq_);
  }

  [[nodiscard]] bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

  /// Approximate from any thread (the two indices are read unordered);
  /// exact from either owning side.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return bound_; }

  /// Starvation signal for the adaptive batcher: 1 while the consumer is
  /// parked waiting for data (SPSC — there is at most one).
  [[nodiscard]] std::size_t waitingConsumers() const noexcept {
    return consumerParked_.load(std::memory_order_relaxed) != 0 ? 1 : 0;
  }

 private:
  // spare slots from the producer's view; refreshes the cached head on a
  // full reading so the common case never touches the consumer's line.
  [[nodiscard]] std::size_t spaceFor(std::uint64_t t) noexcept {
    if (t - cachedHead_ >= bound_) {
      cachedHead_ = head_.load(std::memory_order_acquire);
    }
    return bound_ - static_cast<std::size_t>(t - cachedHead_);
  }

  // buffered elements from the consumer's view; refreshes the cached
  // tail on an empty reading.
  [[nodiscard]] std::size_t availableAt(std::uint64_t h) noexcept {
    if (cachedTail_ == h) {
      cachedTail_ = tail_.load(std::memory_order_acquire);
    }
    return static_cast<std::size_t>(cachedTail_ - h);
  }

  // The bulk copies run over the ring's (at most two) contiguous spans
  // instead of masking every index: std::move / insert over pointer
  // ranges lower to memmove for trivially copyable T, which is most of
  // the bulk path's per-element cost.
  void publishFrom(std::vector<T>& batch, std::size_t from, std::uint64_t t, std::size_t n,
                   bool metrics) {
    const std::size_t start = static_cast<std::size_t>(t) & mask_;
    const std::size_t firstSpan = std::min(n, slots_.size() - start);
    const auto src = batch.begin() + static_cast<std::ptrdiff_t>(from);
    std::move(src, src + static_cast<std::ptrdiff_t>(firstSpan),
              slots_.begin() + static_cast<std::ptrdiff_t>(start));
    std::move(src + static_cast<std::ptrdiff_t>(firstSpan), src + static_cast<std::ptrdiff_t>(n),
              slots_.begin());
    tail_.store(t + n, std::memory_order_release);
    if (metrics) [[unlikely]] countBulkPut(n);
    wakeConsumerIfParked();
  }

  void popInto(std::vector<T>& out, std::uint64_t h, std::size_t n, bool metrics) {
    const std::size_t start = static_cast<std::size_t>(h) & mask_;
    const std::size_t firstSpan = std::min(n, slots_.size() - start);
    const auto base = slots_.begin() + static_cast<std::ptrdiff_t>(start);
    out.reserve(out.size() + n);
    out.insert(out.end(), std::make_move_iterator(base),
               std::make_move_iterator(base + static_cast<std::ptrdiff_t>(firstSpan)));
    out.insert(out.end(), std::make_move_iterator(slots_.begin()),
               std::make_move_iterator(slots_.begin() + static_cast<std::ptrdiff_t>(n - firstSpan)));
    head_.store(h + n, std::memory_order_release);
    if (metrics) [[unlikely]] countBulkTake(n);
    wakeProducerIfParked();
  }

  // First wait cycle with a cancellable token: register the wakeup and
  // return true so the caller re-checks (closing the register/cancel
  // race). The callback only bumps/wakes atomics — safe from the
  // canceller's thread with arbitrary locks held.
  bool registerWake(const CancelToken& token, std::optional<CancelCallback>& wake) {
    if (!token.canBeCancelled() || wake) return false;
    wake.emplace(token, [this] {
      bumpAndWake(notFullSeq_);
      bumpAndWake(notEmptySeq_);
    });
    return true;
  }

  static void bumpAndWake(std::atomic<std::uint32_t>& seq) noexcept {
    seq.fetch_add(1, std::memory_order_release);
    spsc_detail::wakeAll(seq);
  }

  // Waker side of the fence-paired parking protocol (see file header).
  void wakeConsumerIfParked() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (consumerParked_.load(std::memory_order_relaxed) != 0) [[unlikely]] {
      consumerParked_.store(0, std::memory_order_relaxed);
      if (obs::metricsEnabled()) [[unlikely]] obs::RingStats::get().wakes.add(1);
      bumpAndWake(notEmptySeq_);
    }
  }

  void wakeProducerIfParked() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (producerParked_.load(std::memory_order_relaxed) != 0) [[unlikely]] {
      producerParked_.store(0, std::memory_order_relaxed);
      if (obs::metricsEnabled()) [[unlikely]] obs::RingStats::get().wakes.add(1);
      bumpAndWake(notFullSeq_);
    }
  }

  // Waiter side. Load the sequence word FIRST, publish the parked flag,
  // fence, re-check every exit condition, then wait on the loaded value:
  // any waker that ran after the load bumped the word, so the wait
  // returns immediately. Returns false only on deadline expiry.
  bool parkProducerFor(const CancelToken& token, const QueueDeadline& deadline, bool metrics) {
    const std::uint32_t s = notFullSeq_.load(std::memory_order_acquire);
    producerParked_.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // The counterpart index must be loaded acquire: when the re-check
    // sees space, the caller's spaceFor() trusts this cached value and
    // skips its own acquire reload, so this load is the only edge
    // ordering the subsequent slot overwrite after the consumer's take
    // (the seq_cst fence *precedes* the load and grants it no acquire
    // semantics).
    cachedHead_ = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - cachedHead_ < bound_ || closed_.load(std::memory_order_relaxed) ||
        token.cancelled()) {
      producerParked_.store(0, std::memory_order_relaxed);
      return true;
    }
    bool expired = false;
    if (metrics) [[unlikely]] {
      obs::RingStats::get().producerParks.add(1);
      const auto t0 = std::chrono::steady_clock::now();
      expired = !spsc_detail::waitUntil(notFullSeq_, s, deadline);
      obs::QueueStats::get().blockedPutMicros.record(microsSince(t0));
    } else {
      expired = !spsc_detail::waitUntil(notFullSeq_, s, deadline);
    }
    producerParked_.store(0, std::memory_order_relaxed);
    return !expired;
  }

  bool parkConsumerFor(const CancelToken& token, const QueueDeadline& deadline, bool metrics) {
    const std::uint32_t s = notEmptySeq_.load(std::memory_order_acquire);
    consumerParked_.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Acquire for the same reason as parkProducerFor: a re-check that
    // sees data feeds availableAt() through the cache, skipping its
    // acquire reload, and the slot read needs this load to order after
    // the producer's release publication.
    cachedTail_ = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (cachedTail_ != h || closed_.load(std::memory_order_relaxed) || token.cancelled()) {
      consumerParked_.store(0, std::memory_order_relaxed);
      return true;
    }
    bool expired = false;
    if (metrics) [[unlikely]] {
      obs::RingStats::get().consumerParks.add(1);
      const auto t0 = std::chrono::steady_clock::now();
      expired = !spsc_detail::waitUntil(notEmptySeq_, s, deadline);
      obs::QueueStats::get().blockedTakeMicros.record(microsSince(t0));
    } else {
      expired = !spsc_detail::waitUntil(notEmptySeq_, s, deadline);
    }
    consumerParked_.store(0, std::memory_order_relaxed);
    return !expired;
  }

  // The untimed parks pass a static empty deadline: with a temporary,
  // GCC's -Wmaybe-uninitialized misreads the inlined `if (deadline)`
  // guard in waitUntil.
  void parkProducer(bool metrics) {
    parkProducerFor(CancelToken{}, spsc_detail::kNoDeadline, metrics);
  }
  void parkConsumer(bool metrics) {
    parkConsumerFor(CancelToken{}, spsc_detail::kNoDeadline, metrics);
  }

  // ---- metrics (the queue.* ledger plus ring.*; relaxed striped atomics,
  // exact at quiescence — the conservation Environment polls teardown
  // until the books settle) ---------------------------------------------

  static std::uint64_t microsSince(std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                          std::chrono::steady_clock::now() - t0)
                                          .count());
  }

  static void countScalarPut() {
    auto& s = obs::QueueStats::get();
    s.putElements.add(1);
    s.depth.add(1);
  }
  static void countScalarTake() {
    auto& s = obs::QueueStats::get();
    s.takeElements.add(1);
    s.depth.sub(1);
  }
  static void countBulkPut(std::size_t moved) {
    auto& s = obs::QueueStats::get();
    s.putBatches.add(1);
    s.putBatchElements.add(moved);
    s.putBatchSize.record(moved);
    s.depth.add(static_cast<std::int64_t>(moved));
  }
  static void countBulkTake(std::size_t n) {
    auto& s = obs::QueueStats::get();
    s.takeBatches.add(1);
    s.takeBatchElements.add(n);
    s.depth.sub(static_cast<std::int64_t>(n));
  }

  // Producer-owned line: tail index plus the producer's cached view of
  // the consumer's head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cachedHead_ = 0;
  // Consumer-owned line.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cachedTail_ = 0;
  // Parking/lifecycle line: touched only on slow paths.
  alignas(64) std::atomic<std::uint32_t> notFullSeq_{0};
  std::atomic<std::uint32_t> notEmptySeq_{0};
  std::atomic<std::uint32_t> producerParked_{0};
  std::atomic<std::uint32_t> consumerParked_{0};
  std::atomic<bool> closed_{false};

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  std::size_t bound_;

#ifndef NDEBUG
  // Debug 1P/1C guard flags (see spsc_detail::SideGuard); off the hot
  // lines above so release layout is unaffected by their absence.
  std::atomic<bool> putBusy_{false};
  std::atomic<bool> takeBusy_{false};
#endif
};

#undef CONGEN_SPSC_SIDE_GUARD

}  // namespace congen
