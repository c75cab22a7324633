#include "concur/fault_injection.hpp"

#include <chrono>
#include <thread>

namespace congen::testing {

namespace {

/// splitmix64 — tiny, stateless, and identical everywhere; the decision
/// stream is a pure function of (seed, global call index).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* faultSiteName(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::QueuePut: return "SpscRing::put";
    case FaultSite::QueueTake: return "SpscRing::take";
    case FaultSite::QueueTryPut: return "SpscRing::tryPut";
    case FaultSite::QueueTryTake: return "SpscRing::tryTake";
    case FaultSite::QueueClose: return "SpscRing::close";
    case FaultSite::PoolSubmit: return "ThreadPool::submit";
    case FaultSite::PoolTaskRun: return "ThreadPool::workerLoop";
    case FaultSite::QueuePutAll: return "SpscRing::putAll";
    case FaultSite::QueueTakeUpTo: return "SpscRing::takeUpTo";
    case FaultSite::PipeBatchFlush: return "Pipe::batchFlush";
    case FaultSite::QueueTimedWait: return "SpscRing::*For";
    case FaultSite::CancelSignal: return "StopSource::requestStop";
    case FaultSite::PoolSteal: return "ThreadPool::steal";
    case FaultSite::ArenaAlloc: return "Arena::systemAlloc";
    case FaultSite::RcAlloc: return "RcBase::operator new";
    case FaultSite::ServeAccept: return "serve::Listener::accept";
    case FaultSite::ServeWrite: return "serve::writeAll";
    case FaultSite::kCount: break;
  }
  return "unknown";
}

bool faultSiteFailureCapable(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::QueuePut:
    case FaultSite::QueueTryPut:
    case FaultSite::QueueTryTake:
    case FaultSite::PoolSubmit:
    case FaultSite::QueuePutAll:
    // Allocation sites translate InjectedFault to IconError 305 (the same
    // clean error a real bad_alloc produces), so failure is in-contract.
    case FaultSite::ArenaAlloc:
    case FaultSite::RcAlloc:
    // The serve layer's socket boundaries already tolerate syscall
    // failure (EMFILE on accept, EPIPE on write): an injected throw
    // exercises the same recovery paths deterministically.
    case FaultSite::ServeAccept:
    case FaultSite::ServeWrite:
      return true;
    default:
      return false;
  }
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(std::uint64_t seed, const SitePolicy& policy) {
  std::lock_guard lock(policyMutex_);
  for (std::size_t i = 0; i < kSites; ++i) {
    policies_[i] = policy;
    if (!faultSiteFailureCapable(static_cast<FaultSite>(i))) policies_[i].failPerMille = 0;
    hits_[i].store(0, std::memory_order_relaxed);
  }
  seed_.store(seed, std::memory_order_relaxed);
  sequence_.store(0, std::memory_order_relaxed);
  delays_.store(0, std::memory_order_relaxed);
  failures_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::armSite(FaultSite site, const SitePolicy& policy) {
  std::lock_guard lock(policyMutex_);
  policies_[static_cast<std::size_t>(site)] = policy;
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::disarm() { armed_.store(false, std::memory_order_release); }

std::uint64_t FaultInjector::hits(FaultSite site) const {
  return hits_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::delaysInjected() const {
  return delays_.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::failuresInjected() const {
  return failures_.load(std::memory_order_relaxed);
}

void FaultInjector::injectSlow(FaultSite site) {
  const auto idx = static_cast<std::size_t>(site);
  hits_[idx].fetch_add(1, std::memory_order_relaxed);
  SitePolicy policy;
  {
    std::lock_guard lock(policyMutex_);
    policy = policies_[idx];
  }
  if (policy.delayPerMille == 0 && policy.failPerMille == 0) return;

  // Three independent draws from one mixed word: delay roll, delay
  // duration, failure roll. The stream depends only on (seed, index),
  // so a fixed seed reproduces the same decision sequence.
  const std::uint64_t n = sequence_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t word = mix(seed_.load(std::memory_order_relaxed) ^ mix(n + 1));
  const auto delayRoll = static_cast<std::uint32_t>(word % 1000);
  const auto durationDraw = static_cast<std::uint32_t>((word >> 10) % 0xffff);
  const auto failRoll = static_cast<std::uint32_t>((word >> 32) % 1000);

  if (delayRoll < policy.delayPerMille && policy.maxDelayMicros > 0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    const auto micros = 1 + durationDraw % policy.maxDelayMicros;
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
  if (failRoll < policy.failPerMille) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    throw InjectedFault(site);
  }
}

}  // namespace congen::testing
