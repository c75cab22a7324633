// fault_injection.hpp — deterministic fault injection for the
// concurrency layer (congen::testing::FaultInjector).
//
// The stress suite needs to shake schedules loose: a race between
// close() and a blocked put(), or between shutdown and submit, may only
// materialize when one side is delayed by a few hundred microseconds at
// exactly the wrong moment. This hook lets tests insert randomized
// delays — and, at the sites where callers already handle failure,
// randomized thrown failures — at the queue put/take and pool submit
// boundaries, driven by a fixed seed so a reproduction is one number.
//
// The hooks follow the trace.hpp idiom: process-global, off by default,
// and the disabled cost is a single relaxed atomic load per hook. They
// are compiled in only under CONGEN_FAULT_INJECTION (the `tsan` and
// `asan-ubsan` CMake presets set it); a production build contains no
// hook code at all. Code paths never depend on the macro being set —
// tests query FaultInjector::compiledIn() and skip when it is not.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace congen::testing {

/// Instrumented boundaries in src/concur. kCount is a sentinel.
enum class FaultSite : std::uint8_t {
  QueuePut = 0,   // SpscRing::put entry (failure-capable)
  QueueTake,      // SpscRing::take entry (delay only)
  QueueTryPut,    // SpscRing::tryPut entry (failure-capable)
  QueueTryTake,   // SpscRing::tryTake entry (failure-capable)
  QueueClose,     // SpscRing::close entry (delay only)
  PoolSubmit,     // ThreadPool::submit entry (failure-capable)
  PoolTaskRun,    // worker about to run a task (delay only)
  QueuePutAll,    // SpscRing::putAll entry (failure-capable)
  QueueTakeUpTo,  // SpscRing::takeUpTo entry (delay only)
  PipeBatchFlush, // Pipe producer about to publish a batch (delay only)
  QueueTimedWait, // timed/cancellable queue op (putAllFor/takeUpToFor) entry (delay only)
  CancelSignal,   // StopSource::requestStop entry (delay only)
  PoolSteal,      // worker about to sweep sibling deques for work (delay only)
  ArenaAlloc,     // arena operator-new fall-through (failure-capable: 305)
  RcAlloc,        // RcBase payload allocation (failure-capable: 305)
  ServeAccept,    // serve listener about to accept() (failure-capable)
  ServeWrite,     // serve socket write-loop iteration (failure-capable:
                  // a throw mid-loop leaves a partial frame on the wire,
                  // exactly the torn-write path the daemon must survive)
  kCount,
};

[[nodiscard]] const char* faultSiteName(FaultSite site) noexcept;

/// Sites where a thrown InjectedFault is part of the caller's existing
/// failure contract (put/tryPut/tryTake return failure, submit throws).
[[nodiscard]] bool faultSiteFailureCapable(FaultSite site) noexcept;

/// Thrown by an armed failure-capable site. Derives from runtime_error
/// so code that already tolerates submit/put failure handles it
/// unchanged; tests can still catch the precise type.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(FaultSite site)
      : std::runtime_error(std::string("injected fault at ") + faultSiteName(site)),
        site_(site) {}
  [[nodiscard]] FaultSite site() const noexcept { return site_; }

 private:
  FaultSite site_;
};

/// Per-site behaviour. Probabilities are per-mille (0..1000) so the
/// configuration stays integral and exact across platforms.
struct SitePolicy {
  std::uint32_t delayPerMille = 0;   // chance a hook sleeps
  std::uint32_t maxDelayMicros = 0;  // sleep duration drawn in [1, max]
  std::uint32_t failPerMille = 0;    // chance a hook throws InjectedFault
};

class FaultInjector {
 public:
  /// Whether the hooks exist in this build (CONGEN_FAULT_INJECTION).
  [[nodiscard]] static constexpr bool compiledIn() noexcept {
#if defined(CONGEN_FAULT_INJECTION)
    return true;
#else
    return false;
#endif
  }

  static FaultInjector& instance();

  /// Arm every site with `policy`, seeded deterministically. Failure
  /// injection is honored only at failure-capable sites (see FaultSite);
  /// delay-only sites take just the delay part. Resets all counters.
  void arm(std::uint64_t seed, const SitePolicy& policy);

  /// Override one site's policy (applied verbatim — caller is
  /// responsible for only configuring failures where they are safe).
  void armSite(FaultSite site, const SitePolicy& policy);

  /// Disable all injection. Idempotent.
  void disarm();

  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Counters since the last arm().
  [[nodiscard]] std::uint64_t hits(FaultSite site) const;
  [[nodiscard]] std::uint64_t delaysInjected() const;
  [[nodiscard]] std::uint64_t failuresInjected() const;

  /// The hook: called by the instrumented code. Near-free when
  /// disarmed (one relaxed load); may sleep or throw when armed.
  static void inject(FaultSite site) {
    auto& self = instance();
    if (!self.armed()) [[likely]] return;
    self.injectSlow(site);
  }

 private:
  FaultInjector() = default;
  void injectSlow(FaultSite site);

  static constexpr std::size_t kSites = static_cast<std::size_t>(FaultSite::kCount);

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<std::uint64_t> sequence_{0};
  mutable std::mutex policyMutex_;             // guards policies_
  std::array<SitePolicy, kSites> policies_{};
  std::array<std::atomic<std::uint64_t>, kSites> hits_{};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> failures_{0};
};

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(std::uint64_t seed, const SitePolicy& policy) {
    FaultInjector::instance().arm(seed, policy);
  }
  ~ScopedFaultInjection() { FaultInjector::instance().disarm(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace congen::testing

// Hook macro used inside src/concur. Expands to nothing unless the
// build defines CONGEN_FAULT_INJECTION, so release binaries carry zero
// instrumentation.
#if defined(CONGEN_FAULT_INJECTION)
#define CONGEN_FAULT_POINT(site) \
  ::congen::testing::FaultInjector::inject(::congen::testing::FaultSite::site)
#else
#define CONGEN_FAULT_POINT(site) ((void)0)
#endif
