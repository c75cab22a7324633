// governor.cpp — ResourceGovernor accounting, thread-local batching,
// the Supervisor watchdog, and the process admission gate.
//
// Layout of the machinery:
//
//  - a leaked live-governor registry recomputes the process-global
//    enforcement flags (governor_hooks.hpp) whenever a governor is
//    created, destroyed, reconfigured, or terminated — the hot paths pay
//    one relaxed load of those flags and nothing else when no governor
//    enforces the matching budget;
//  - a thread-local cell carries the installed governor plus pending
//    fuel/heap batches, so governed hot paths do plain thread-local
//    arithmetic and touch the governor's shared atomics once per batch
//    (the "thread-local reservation" of INTERNALS §15: a budget can be
//    overrun by at most one batch per thread before it trips);
//  - retired totals feed the obs collector, so governor.fuel_spent /
//    quota_trips survive governor destruction while heap_reserved (a
//    gauge) tracks only live charges.
#include "runtime/governor.hpp"

#include <algorithm>
#include <condition_variable>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/error.hpp"

namespace congen::governor {

namespace {

// Batch sizes for the thread-local reservations. Tree steps are whole
// next() calls (heavier than VM dispatches), so they batch finer; the
// heap batch bounds per-thread overrun of the byte budget.
constexpr std::uint64_t kStepBatch = 256;
constexpr std::int64_t kHeapFlushBytes = 64 * 1024;

struct GovernorRegistry {
  std::mutex m;
  std::vector<ResourceGovernor*> live;
  // Folded at governor destruction so the obs totals are monotonic.
  std::uint64_t retiredFuelSpent = 0;
  std::uint64_t retiredQuotaTrips = 0;
};

// Leaked: thread-local cells may flush during static destruction.
GovernorRegistry& registry() {
  static GovernorRegistry* r = new GovernorRegistry;
  return *r;
}

}  // namespace

namespace detail {

std::atomic<bool> g_stepActive{false};
std::atomic<bool> g_heapActive{false};
std::atomic<bool> g_depthActive{false};
std::atomic<bool> g_anyActive{false};

namespace {

/// Per-thread accounting cell. `gov` owns a reference for as long as it
/// is installed (ScopedGovernor or the thread-default), so the raw
/// pointer handed out by current() cannot dangle. `alive` guards against
/// charges arriving after this thread_local was destroyed (allocator
/// hooks run from other TLS destructors).
struct Tls {
  std::shared_ptr<ResourceGovernor> gov;
  std::shared_ptr<ResourceGovernor> threadDefault;
  std::uint64_t pendingSteps = 0;
  std::int64_t pendingHeap = 0;
  std::uint64_t depth = 0;
  bool alive = true;

  ~Tls() {
    alive = false;
    if (gov != nullptr) {
      try {
        if (pendingSteps != 0) gov->chargeSteps(pendingSteps);
      } catch (...) {
        // Thread teardown: the spent total is recorded; the trip has
        // nowhere to surface.
      }
      try {
        // Positive batches must land too: the allocations are live and
        // their eventual frees (possibly on other threads) will be
        // credited — dropping the charge would drift heapReserved low.
        // A trip is swallowed like the fuel one above (newBytes = 0, so
        // the charge itself stays on the books).
        if (pendingHeap != 0) gov->adjustHeap(pendingHeap, 0);
      } catch (...) {
      }
      pendingSteps = 0;
      pendingHeap = 0;
    }
  }
};

Tls& tls() {
  thread_local Tls t;
  return t;
}

/// Charge the thread's pending batches to the installed governor.
/// Throws on a trip — the spent totals are recorded first, so a caller
/// that must not throw (ScopedGovernor, Tls teardown) can swallow the
/// error and let the *next* charge on the same governor re-trip.
void flushPending(Tls& t) {
  if (t.gov == nullptr) {
    t.pendingSteps = 0;
    t.pendingHeap = 0;
    return;
  }
  if (t.pendingHeap != 0) {
    const std::int64_t d = t.pendingHeap;
    t.pendingHeap = 0;
    t.gov->adjustHeap(d, 0);
  }
  if (t.pendingSteps != 0) {
    const std::uint64_t n = t.pendingSteps;
    t.pendingSteps = 0;
    t.gov->chargeSteps(n);
  }
}

}  // namespace

void chargeStepSlow() {
  auto& t = tls();
  if (!t.alive || t.gov == nullptr) return;
  if (++t.pendingSteps < kStepBatch) return;
  t.pendingSteps = 0;
  t.gov->chargeSteps(kStepBatch);
}

void chargeHeapSlow(std::size_t bytes) {
  auto& t = tls();
  if (!t.alive || t.gov == nullptr) return;
  t.pendingHeap += static_cast<std::int64_t>(bytes);
  if (t.pendingHeap < kHeapFlushBytes) return;
  const std::int64_t d = t.pendingHeap;
  t.pendingHeap = 0;
  t.gov->adjustHeap(d, bytes);
}

void creditHeapSlow(std::size_t bytes) noexcept {
  auto& t = tls();
  if (!t.alive || t.gov == nullptr) return;
  t.pendingHeap -= static_cast<std::int64_t>(bytes);
  if (t.pendingHeap > -kHeapFlushBytes) return;
  const std::int64_t d = t.pendingHeap;
  t.pendingHeap = 0;
  t.gov->adjustHeap(d, 0);  // pure credit: never throws
}

void enterDepthSlow() {
  auto& t = tls();
  if (!t.alive) return;
  ++t.depth;
  if (t.gov == nullptr) return;
  const std::uint64_t limit = t.gov->depthLimit();
  if (limit != 0 && t.depth > limit) {
    --t.depth;  // the guard never arms when its ctor throws
    t.gov->noteTrip();
    throw errDepthQuota();
  }
}

void leaveDepthSlow() noexcept {
  auto& t = tls();
  if (!t.alive) return;
  if (t.depth > 0) --t.depth;
}

}  // namespace detail

namespace {

/// Recompute the process-global enforcement flags from the live set.
/// Called with the registry lock held.
void recomputeFlagsLocked(GovernorRegistry& r) {
  bool step = false, heap = false, depth = false;
  for (const ResourceGovernor* g : r.live) {
    const Limits l = g->limits();
    // Termination rides the fuel path: a terminated governor must make
    // every thread still driving it reach a throw point.
    step = step || l.maxFuel != 0 || g->terminated();
    heap = heap || l.maxHeapBytes != 0;
    depth = depth || l.maxDepth != 0;
  }
  detail::g_stepActive.store(step, std::memory_order_relaxed);
  detail::g_heapActive.store(heap, std::memory_order_relaxed);
  detail::g_depthActive.store(depth, std::memory_order_relaxed);
  detail::g_anyActive.store(!r.live.empty(), std::memory_order_relaxed);
}

void recomputeFlags() {
  auto& r = registry();
  std::lock_guard lock(r.m);
  recomputeFlagsLocked(r);
}

}  // namespace

// ---------------------------------------------------------------------------
// ResourceGovernor

ResourceGovernor::ResourceGovernor(const Limits& limits)
    : admitted_(limits),
      hostLimits_(limits),
      fuelLimit_(limits.maxFuel),
      heapLimit_(limits.maxHeapBytes),
      pipeLimit_(limits.maxPipes),
      coexprLimit_(limits.maxCoexprs),
      pipeDepthLimit_(limits.maxPipeDepth),
      depthLimit_(limits.maxDepth) {}

std::shared_ptr<ResourceGovernor> ResourceGovernor::create(const Limits& limits) {
  // Limitless governors (thread defaults, --supervise without quotas)
  // commit no budget and bypass the admission gate.
  if (limits.any()) Admission::global().admit(limits);
  std::shared_ptr<ResourceGovernor> gov(new ResourceGovernor(limits));
  auto& r = registry();
  std::lock_guard lock(r.m);
  r.live.push_back(gov.get());
  recomputeFlagsLocked(r);
  return gov;
}

ResourceGovernor::~ResourceGovernor() {
  // Release exactly what create() admitted — effective limits may have
  // been tightened (setScriptLimit) or moved (setLimit) since, and the
  // gate's committed totals must stay balanced regardless.
  const Limits admitted = admitted_;
  auto& r = registry();
  {
    std::lock_guard lock(r.m);
    std::erase(r.live, this);
    r.retiredFuelSpent += fuelSpent_.load(std::memory_order_relaxed);
    r.retiredQuotaTrips += quotaTrips_.load(std::memory_order_relaxed);
    recomputeFlagsLocked(r);
  }
  if (admitted.any()) Admission::global().release(admitted);
}

Limits ResourceGovernor::limits() const {
  Limits l;
  l.maxFuel = fuelLimit_.load(std::memory_order_relaxed);
  l.maxHeapBytes = heapLimit_.load(std::memory_order_relaxed);
  l.maxPipes = pipeLimit_.load(std::memory_order_relaxed);
  l.maxCoexprs = coexprLimit_.load(std::memory_order_relaxed);
  l.maxPipeDepth = pipeDepthLimit_.load(std::memory_order_relaxed);
  l.maxDepth = depthLimit_.load(std::memory_order_relaxed);
  return l;
}

std::atomic<std::uint64_t>& ResourceGovernor::limitCell(Budget budget) noexcept {
  switch (budget) {
    case Budget::Fuel: return fuelLimit_;
    case Budget::Heap: return heapLimit_;
    case Budget::Pipes: return pipeLimit_;
    case Budget::Coexprs: return coexprLimit_;
    case Budget::PipeDepth: return pipeDepthLimit_;
    case Budget::Depth: return depthLimit_;
  }
  return fuelLimit_;  // unreachable
}

namespace {

std::uint64_t& hostField(Limits& l, Budget budget) noexcept {
  switch (budget) {
    case Budget::Fuel: return l.maxFuel;
    case Budget::Heap: return l.maxHeapBytes;
    case Budget::Pipes: return l.maxPipes;
    case Budget::Coexprs: return l.maxCoexprs;
    case Budget::PipeDepth: return l.maxPipeDepth;
    case Budget::Depth: return l.maxDepth;
  }
  return l.maxFuel;  // unreachable
}

}  // namespace

void ResourceGovernor::setLimit(Budget budget, std::uint64_t value) {
  {
    std::lock_guard lock(limitMu_);
    // A fresh fuel budget, not the remainder of an old one: the host
    // restarts the accounting epoch (live counts, by contrast, must
    // keep their credits balanced and are never reset).
    if (budget == Budget::Fuel) fuelSpent_.store(0, std::memory_order_relaxed);
    hostField(hostLimits_, budget) = value;
    limitCell(budget).store(value, std::memory_order_relaxed);
  }
  // Note: admission commitments are negotiated at create() and are NOT
  // re-negotiated here (a tenant cannot grow its admitted footprint by
  // raising its own limit mid-session).
  recomputeFlags();
}

std::uint64_t ResourceGovernor::setScriptLimit(Budget budget, std::uint64_t value) {
  std::uint64_t effective = 0;
  {
    std::lock_guard lock(limitMu_);
    const std::uint64_t host = hostField(hostLimits_, budget);
    // Tighten-only against the host baseline: 0 restores the host value
    // (only "unlimited" when the host never imposed one), anything else
    // clamps to it. A governed script can thus never widen the envelope
    // congen-run --max-* / Interpreter::Options committed it to.
    if (value == 0) {
      effective = host;
    } else {
      effective = host == 0 ? value : std::min(value, host);
    }
    // The epoch restart (fresh fuel) is only available when the fuel
    // budget is script-owned — resetting fuelSpent_ under a host limit
    // would let a script re-grant its own budget every trip.
    if (budget == Budget::Fuel && host == 0) fuelSpent_.store(0, std::memory_order_relaxed);
    limitCell(budget).store(effective, std::memory_order_relaxed);
  }
  recomputeFlags();
  return effective;
}

Usage ResourceGovernor::usage() const noexcept {
  Usage u;
  u.fuelSpent = fuelSpent_.load(std::memory_order_relaxed);
  const std::int64_t heap = heapReserved_.load(std::memory_order_relaxed);
  u.heapReserved = heap > 0 ? static_cast<std::uint64_t>(heap) : 0;
  u.livePipes = livePipes_.load(std::memory_order_relaxed);
  u.liveCoexprs = liveCoexprs_.load(std::memory_order_relaxed);
  u.quotaTrips = quotaTrips_.load(std::memory_order_relaxed);
  return u;
}

void ResourceGovernor::noteTrip() noexcept {
  quotaTrips_.fetch_add(1, std::memory_order_relaxed);
}

void ResourceGovernor::throwTerminated() { throw errSessionTerminated(); }

void ResourceGovernor::chargeSteps(std::uint64_t n) {
  if (n == 0) return;
  if (terminated_.load(std::memory_order_relaxed)) throwTerminated();
  const std::uint64_t spent = fuelSpent_.fetch_add(n, std::memory_order_relaxed) + n;
  const std::uint64_t limit = fuelLimit_.load(std::memory_order_relaxed);
  if (limit != 0 && spent > limit) {
    noteTrip();
    throw errFuelExhausted();
  }
}

void ResourceGovernor::adjustHeap(std::int64_t delta, std::uint64_t newBytes) {
  if (delta == 0) return;
  const std::int64_t now = heapReserved_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (delta <= 0) return;  // pure credit: clamped at read time (usage())
  if (terminated_.load(std::memory_order_relaxed)) {
    // The allocation the throw abandons is backed out; charges for
    // allocations that already happened stay on the books.
    heapReserved_.fetch_sub(static_cast<std::int64_t>(newBytes), std::memory_order_relaxed);
    throwTerminated();
  }
  const std::uint64_t limit = heapLimit_.load(std::memory_order_relaxed);
  if (limit != 0 && now > static_cast<std::int64_t>(limit)) {
    heapReserved_.fetch_sub(static_cast<std::int64_t>(newBytes), std::memory_order_relaxed);
    noteTrip();
    throw errHeapQuota();
  }
}

void ResourceGovernor::chargeCoexpr() {
  if (terminated_.load(std::memory_order_relaxed)) throwTerminated();
  const std::uint64_t live = liveCoexprs_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t limit = coexprLimit_.load(std::memory_order_relaxed);
  if (limit != 0 && live > limit) {
    liveCoexprs_.fetch_sub(1, std::memory_order_relaxed);
    noteTrip();
    throw errCoexprQuota();
  }
}

void ResourceGovernor::creditCoexpr() noexcept {
  liveCoexprs_.fetch_sub(1, std::memory_order_relaxed);
}

void ResourceGovernor::chargePipe() {
  if (terminated_.load(std::memory_order_relaxed)) throwTerminated();
  const std::uint64_t live = livePipes_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t limit = pipeLimit_.load(std::memory_order_relaxed);
  if (limit != 0 && live > limit) {
    livePipes_.fetch_sub(1, std::memory_order_relaxed);
    noteTrip();
    throw errPipeQuota();
  }
}

void ResourceGovernor::creditPipe() noexcept {
  livePipes_.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t ResourceGovernor::clampPipeCapacity(std::size_t capacity) const noexcept {
  const std::uint64_t limit = pipeDepthLimit_.load(std::memory_order_relaxed);
  if (limit == 0) return capacity;
  // Graceful degradation, not an error: an oversized request shrinks to
  // the budget (backpressure arrives earlier; semantics are unchanged).
  // Pipe then bounds the result into [1, Pipe::kMaxCapacity].
  return std::min<std::size_t>(capacity, static_cast<std::size_t>(limit));
}

void ResourceGovernor::requestSoftStop() noexcept { source_.requestStop(); }

void ResourceGovernor::terminate() noexcept {
  terminated_.store(true, std::memory_order_relaxed);
  source_.requestStop();  // unblock producers parked in queue waits
  // Flip the global fuel flag so every governed thread reaches a charge
  // point (and the 816 throw) within one step batch.
  recomputeFlags();
}

// ---------------------------------------------------------------------------
// Thread-local installation

ScopedGovernor::ScopedGovernor(std::shared_ptr<ResourceGovernor> gov) {
  auto& t = detail::tls();
  if (!t.alive) return;
  // Charges batched so far belong to the outgoing governor. A trip here
  // is swallowed (spent totals are already recorded; the next charge on
  // that governor re-trips) so scope entry/exit never throws.
  try {
    detail::flushPending(t);
  } catch (const IconError&) {
  }
  prev_ = std::move(t.gov);
  t.gov = std::move(gov);
  installed_ = true;
}

ScopedGovernor::~ScopedGovernor() {
  if (!installed_) return;
  auto& t = detail::tls();
  if (!t.alive) return;
  try {
    detail::flushPending(t);
  } catch (const IconError&) {
  }
  t.gov = std::move(prev_);
}

ResourceGovernor* current() noexcept {
  auto& t = detail::tls();
  return t.alive ? t.gov.get() : nullptr;
}

std::shared_ptr<ResourceGovernor> currentShared() noexcept {
  auto& t = detail::tls();
  return t.alive ? t.gov : nullptr;
}

std::shared_ptr<ResourceGovernor> currentOrThreadDefault() {
  auto& t = detail::tls();
  if (!t.alive) return nullptr;
  if (t.gov != nullptr) return t.gov;
  if (t.threadDefault == nullptr) {
    // Code running outside any Interpreter (an emitted module's main):
    // a limitless governor owned by this thread, installed as current so
    // the charge paths see it. It persists for the thread's lifetime;
    // with all limits at 0 it keeps every enforcement flag off.
    t.threadDefault = ResourceGovernor::create(Limits{});
  }
  t.gov = t.threadDefault;
  return t.gov;
}

// ---------------------------------------------------------------------------
// RAII count charges (hooks header)

void CoexprCharge::charge() {
  auto gov = currentShared();
  if (gov == nullptr) return;
  gov->chargeCoexpr();  // throws before gov_ is set: dtor won't credit
  gov_ = std::move(gov);
}

void CoexprCharge::credit() noexcept { gov_->creditCoexpr(); }

void PipeCharge::charge() {
  auto gov = currentShared();
  if (gov == nullptr) return;
  gov->chargePipe();
  gov_ = std::move(gov);
}

void PipeCharge::credit() noexcept { gov_->creditPipe(); }

// ---------------------------------------------------------------------------
// Supervisor

namespace {

struct WatchEntry {
  std::uint64_t id = 0;
  std::weak_ptr<ResourceGovernor> gov;
  std::chrono::steady_clock::time_point softAt;
  std::chrono::steady_clock::time_point hardAt;
  std::function<void()> diagnostics;
  bool softDone = false;
};

struct SupervisorState {
  std::mutex m;
  std::condition_variable cv;
  std::vector<WatchEntry> entries;
  // Watch ids whose escalation has been scheduled by a tick but has not
  // finished executing yet (the tick runs requestSoftStop / diagnostics
  // / terminate outside the lock). Watch::cancel waits until its id
  // leaves this set, so a cancelled watch is never escalated *and*
  // never observed mid-escalation.
  std::vector<std::uint64_t> inFlight;
  std::uint64_t nextId = 1;
  bool threadStarted = false;
  std::thread::id watchdogThread;
  std::atomic<std::uint64_t> softIssued{0};
  std::atomic<std::uint64_t> hardIssued{0};
};

// Leaked: the watchdog thread is detached and may outlive main().
SupervisorState& supervisorState() {
  static SupervisorState* s = new SupervisorState;
  return *s;
}

void supervisorTick(SupervisorState& s) {
  const auto now = std::chrono::steady_clock::now();
  // Escalations collected under the lock, executed outside it: the
  // diagnostics callback is arbitrary caller code (Pipe::dumpAll, a
  // metrics snapshot) and must not run under the supervisor mutex.
  // Every scheduled escalation parks its watch id in s.inFlight first,
  // so a concurrent Watch::cancel blocks until it has fully executed.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<ResourceGovernor>>> toSoftStop;
  struct Hard {
    std::uint64_t id;
    std::shared_ptr<ResourceGovernor> gov;
    std::function<void()> diagnostics;
  };
  std::vector<Hard> toTerminate;
  {
    std::lock_guard lock(s.m);
    std::erase_if(s.entries, [&](WatchEntry& e) {
      auto gov = e.gov.lock();
      if (gov == nullptr) return true;  // session finished on its own
      if (now >= e.hardAt) {
        s.inFlight.push_back(e.id);
        toTerminate.push_back({e.id, std::move(gov), std::move(e.diagnostics)});
        return true;  // fully escalated: nothing left to watch
      }
      if (!e.softDone && now >= e.softAt) {
        e.softDone = true;
        s.inFlight.push_back(e.id);
        toSoftStop.emplace_back(e.id, std::move(gov));
      }
      return false;
    });
  }
  for (auto& [id, gov] : toSoftStop) {
    s.softIssued.fetch_add(1, std::memory_order_relaxed);
    gov->requestSoftStop();
  }
  for (auto& h : toTerminate) {
    s.hardIssued.fetch_add(1, std::memory_order_relaxed);
    if (h.diagnostics) {
      try {
        h.diagnostics();
      } catch (...) {
        // Diagnostics are best-effort; teardown proceeds regardless.
      }
    }
    h.gov->terminate();
  }
  if (!toSoftStop.empty() || !toTerminate.empty()) {
    std::lock_guard lock(s.m);
    for (const auto& [id, gov] : toSoftStop) std::erase(s.inFlight, id);
    for (const auto& h : toTerminate) std::erase(s.inFlight, h.id);
    s.cv.notify_all();  // wake cancel()ers waiting out an escalation
  }
}

void ensureSupervisorThread(SupervisorState& s) {
  // Caller holds s.m.
  if (s.threadStarted) return;
  s.threadStarted = true;
  std::thread([&s] {
    std::unique_lock lock(s.m);
    s.watchdogThread = std::this_thread::get_id();
    for (;;) {
      s.cv.wait_for(lock, std::chrono::milliseconds(20));
      lock.unlock();
      supervisorTick(s);
      lock.lock();
    }
  }).detach();
}

}  // namespace

Supervisor& Supervisor::global() {
  static Supervisor* s = new Supervisor;
  return *s;
}

Supervisor::Watch Supervisor::watch(std::shared_ptr<ResourceGovernor> gov,
                                    std::chrono::milliseconds soft, std::chrono::milliseconds hard,
                                    std::function<void()> diagnostics) {
  auto& s = supervisorState();
  const auto now = std::chrono::steady_clock::now();
  WatchEntry e;
  e.gov = gov;
  e.softAt = now + soft;
  e.hardAt = now + std::max(soft, hard);
  e.diagnostics = std::move(diagnostics);
  std::lock_guard lock(s.m);
  e.id = s.nextId++;
  s.entries.push_back(std::move(e));
  ensureSupervisorThread(s);
  return Watch(s.entries.back().id);
}

std::uint64_t Supervisor::softStopsIssued() const noexcept {
  return supervisorState().softIssued.load(std::memory_order_relaxed);
}

std::uint64_t Supervisor::hardTeardownsIssued() const noexcept {
  return supervisorState().hardIssued.load(std::memory_order_relaxed);
}

Supervisor::Watch& Supervisor::Watch::operator=(Watch&& o) noexcept {
  if (this != &o) {
    cancel();
    id_ = o.id_;
    o.id_ = 0;
  }
  return *this;
}

void Supervisor::Watch::cancel() noexcept {
  if (id_ == 0) return;
  const std::uint64_t id = id_;
  id_ = 0;
  auto& s = supervisorState();
  std::unique_lock lock(s.m);
  std::erase_if(s.entries, [id](const WatchEntry& e) { return e.id == id; });
  // A deadline that fired concurrently already left entries; its
  // escalation may be running right now, outside the lock. Wait it out
  // so the caller can rely on "after cancel(), the supervisor never
  // touches this session again" — except on the watchdog thread itself
  // (a diagnostics callback cancelling a watch must not self-deadlock).
  if (std::this_thread::get_id() != s.watchdogThread) {
    s.cv.wait(lock, [&s, id] {
      return std::find(s.inFlight.begin(), s.inFlight.end(), id) == s.inFlight.end();
    });
  }
}

// ---------------------------------------------------------------------------
// Admission

Admission& Admission::global() {
  static Admission* a = new Admission;
  return *a;
}

void Admission::configure(const Config& config) {
  std::lock_guard lock(mu_);
  config_ = config;
}

Admission::Config Admission::config() const {
  std::lock_guard lock(mu_);
  return config_;
}

std::uint64_t Admission::liveSessions() const noexcept {
  std::lock_guard lock(mu_);
  return liveSessions_;
}

std::uint64_t Admission::committedHeapBytes() const noexcept {
  std::lock_guard lock(mu_);
  return committedHeap_;
}

std::uint64_t Admission::sheds() const noexcept {
  return sheds_.load(std::memory_order_relaxed);
}

void Admission::admit(const Limits& limits) {
  std::string refusal;
  {
    std::lock_guard lock(mu_);
    if (config_.maxSessions != 0 && liveSessions_ + 1 > config_.maxSessions) {
      refusal = "session count at capacity";
    } else if (config_.maxCommittedHeapBytes != 0 &&
               committedHeap_ + limits.maxHeapBytes > config_.maxCommittedHeapBytes) {
      refusal = "committed heap at capacity";
    } else {
      ++liveSessions_;
      committedHeap_ += limits.maxHeapBytes;
      return;
    }
  }
  sheds_.fetch_add(1, std::memory_order_relaxed);
  throw errAdmissionRefused(refusal);
}

void Admission::release(const Limits& limits) noexcept {
  std::lock_guard lock(mu_);
  if (liveSessions_ > 0) --liveSessions_;
  committedHeap_ -= std::min(committedHeap_, limits.maxHeapBytes);
}

// ---------------------------------------------------------------------------
// obs bridge: snapshot-time collector over live + retired totals (the
// arena-tally pattern — charge paths never touch the registry handles).

namespace {

[[maybe_unused]] const bool kCollectorRegistered = [] {
  obs::Registry::global().addCollector(
      [lastFuel = std::uint64_t{0}, lastTrips = std::uint64_t{0}, lastSheds = std::uint64_t{0},
       lastHeap = std::int64_t{0}]() mutable {
        std::uint64_t fuel = 0, trips = 0;
        std::int64_t heap = 0;
        {
          auto& r = registry();
          std::lock_guard lock(r.m);
          fuel = r.retiredFuelSpent;
          trips = r.retiredQuotaTrips;
          for (const ResourceGovernor* g : r.live) {
            const Usage u = g->usage();
            fuel += u.fuelSpent;
            trips += u.quotaTrips;
            heap += static_cast<std::int64_t>(u.heapReserved);
          }
        }
        const std::uint64_t sheds = Admission::global().sheds();
        auto& s = obs::GovernorStats::get();
        s.fuelSpent.add(fuel - lastFuel);
        s.quotaTrips.add(trips - lastTrips);
        s.sheds.add(sheds - lastSheds);
        s.heapReserved.add(heap - lastHeap);
        lastFuel = fuel;
        lastTrips = trips;
        lastSheds = sheds;
        lastHeap = heap;
      });
  return true;
}();

}  // namespace

}  // namespace congen::governor
