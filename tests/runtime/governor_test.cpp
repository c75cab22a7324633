// governor_test.cpp — the resource governor: per-interpreter quotas,
// runaway containment, and graceful degradation.
//
// Three layers under test:
//  - the ResourceGovernor accounting core (charges, trips, epochs,
//    termination) through its direct API;
//  - the process-level Admission gate and the Supervisor watchdog;
//  - end-to-end enforcement through the Interpreter: both backends must
//    raise the identical 81x error for the same exhausted budget (fuel
//    parity is the headline — the fuel budget used to be VM-only), and the
//    fault-injection allocation sites must surface as the same clean,
//    catchable 305 a real bad_alloc produces.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "concur/fault_injection.hpp"
#include "interp/interpreter.hpp"
#include "obs/metrics.hpp"
#include "runtime/error.hpp"
#include "runtime/governor.hpp"

namespace congen {
namespace {

using governor::Budget;
using governor::Limits;
using governor::ResourceGovernor;

/// Run `fn`, returning the IconError number it throws (-1 = no throw).
int iconErrorNumber(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const IconError& e) {
    return e.number();
  }
  return -1;
}

/// Admission is process-global; every test restores the unlimited seed
/// configuration so suites sharing this binary stay independent.
class AdmissionConfigGuard {
 public:
  AdmissionConfigGuard() : saved_(governor::Admission::global().config()) {}
  ~AdmissionConfigGuard() { governor::Admission::global().configure(saved_); }

 private:
  governor::Admission::Config saved_;
};

// ---------------------------------------------------------------------------
// Accounting core (direct API)
// ---------------------------------------------------------------------------

TEST(GovernorCore, FuelTripsAt810AndSetLimitRestartsTheEpoch) {
  Limits limits;
  limits.maxFuel = 100;
  auto gov = ResourceGovernor::create(limits);
  gov->chargeSteps(60);
  EXPECT_EQ(gov->usage().fuelSpent, 60u);
  EXPECT_EQ(iconErrorNumber([&] { gov->chargeSteps(60); }), 810);
  EXPECT_EQ(gov->usage().quotaTrips, 1u);

  // setquota("fuel", n) semantics: a fresh budget, not the remainder.
  gov->setLimit(Budget::Fuel, 200);
  EXPECT_EQ(gov->usage().fuelSpent, 0u);
  gov->chargeSteps(150);
  EXPECT_EQ(gov->usage().fuelSpent, 150u);
}

TEST(GovernorCore, ScriptLimitsCannotLoosenHostBudgets) {
  Limits limits;
  limits.maxFuel = 100;
  limits.maxHeapBytes = 1000;
  auto gov = ResourceGovernor::create(limits);
  gov->chargeSteps(60);

  // setquota("fuel", 0) restores the host limit instead of removing it,
  // and a host-imposed fuel epoch is never restarted by the script.
  EXPECT_EQ(gov->setScriptLimit(Budget::Fuel, 0), 100u);
  EXPECT_EQ(gov->usage().fuelSpent, 60u);
  // A raise clamps to the host ceiling; spent still stands.
  EXPECT_EQ(gov->setScriptLimit(Budget::Fuel, 1u << 30), 100u);
  EXPECT_EQ(gov->usage().fuelSpent, 60u);
  EXPECT_EQ(iconErrorNumber([&] { gov->chargeSteps(60); }), 810);

  // Tightening below the host value is allowed...
  EXPECT_EQ(gov->setScriptLimit(Budget::Heap, 400), 400u);
  EXPECT_EQ(iconErrorNumber([&] { gov->adjustHeap(500, 500); }), 811);
  // ...and 0 goes back to the host baseline, not to unlimited.
  EXPECT_EQ(gov->setScriptLimit(Budget::Heap, 0), 1000u);
  gov->adjustHeap(500, 500);
  EXPECT_EQ(gov->usage().heapReserved, 500u);

  // Budgets the host never set stay fully script-managed — the
  // thread-default governor is the all-zero case of this.
  EXPECT_EQ(gov->setScriptLimit(Budget::Coexprs, 2), 2u);
  EXPECT_EQ(gov->setScriptLimit(Budget::Coexprs, 0), 0u);

  // The host API stays unrestricted and moves the baseline with it.
  gov->setLimit(Budget::Fuel, 200);
  EXPECT_EQ(gov->usage().fuelSpent, 0u) << "host setLimit grants a fresh epoch";
  EXPECT_EQ(gov->setScriptLimit(Budget::Fuel, 0), 200u);
}

TEST(GovernorCore, ThreadTeardownChargesPositivePendingHeap) {
  std::shared_ptr<ResourceGovernor> gov;
  std::thread([&] {
    gov = governor::currentOrThreadDefault();  // limitless thread default
    // Stays pending (below the 64 KiB flush batch) until the thread's
    // accounting cell is destroyed — which must charge it, not drop it:
    // the matching frees may be credited from other threads later.
    governor::detail::chargeHeapSlow(4096);
  }).join();
  ASSERT_NE(gov, nullptr);
  EXPECT_EQ(gov->usage().heapReserved, 4096u)
      << "a dying thread's positive pending batch must land on the governor";
}

TEST(GovernorCore, TerminateThrows816AndSignalsStop) {
  auto gov = ResourceGovernor::create(Limits{});
  EXPECT_FALSE(gov->stopToken().cancelled());
  gov->terminate();
  EXPECT_TRUE(gov->terminated());
  EXPECT_TRUE(gov->stopToken().cancelled());
  // Terminated wins over any remaining budget at every charge point.
  EXPECT_EQ(iconErrorNumber([&] { gov->chargeSteps(1); }), 816);
}

TEST(GovernorCore, HeapTripsAt811AndBacksOutTheAbandonedAllocation) {
  Limits limits;
  limits.maxHeapBytes = 1000;
  auto gov = ResourceGovernor::create(limits);
  gov->adjustHeap(500, 500);
  EXPECT_EQ(gov->usage().heapReserved, 500u);

  // The 600 new bytes belong to an allocation the throw abandons: they
  // must be backed out, leaving the 500 live bytes charged.
  EXPECT_EQ(iconErrorNumber([&] { gov->adjustHeap(600, 600); }), 811);
  EXPECT_EQ(gov->usage().heapReserved, 500u);
  EXPECT_EQ(gov->usage().quotaTrips, 1u);

  gov->adjustHeap(-500, 0);
  EXPECT_EQ(gov->usage().heapReserved, 0u);
  gov->adjustHeap(-100, 0);  // stray credit clamps, never underflows
  EXPECT_EQ(gov->usage().heapReserved, 0u);
}

TEST(GovernorCore, PipeAndCoexprBudgetsTripAt812) {
  Limits limits;
  limits.maxPipes = 1;
  limits.maxCoexprs = 2;
  auto gov = ResourceGovernor::create(limits);

  gov->chargePipe();
  EXPECT_EQ(gov->usage().livePipes, 1u);
  EXPECT_EQ(iconErrorNumber([&] { gov->chargePipe(); }), 812);
  EXPECT_EQ(gov->usage().livePipes, 1u) << "a tripped charge must not stick";
  gov->creditPipe();
  EXPECT_EQ(gov->usage().livePipes, 0u);

  gov->chargeCoexpr();
  gov->chargeCoexpr();
  EXPECT_EQ(iconErrorNumber([&] { gov->chargeCoexpr(); }), 812);
  EXPECT_EQ(gov->usage().liveCoexprs, 2u);
  gov->creditCoexpr();
  gov->creditCoexpr();
  EXPECT_EQ(gov->usage().liveCoexprs, 0u);
}

TEST(GovernorCore, ClampPipeCapacityDegradesGracefully) {
  auto unlimited = ResourceGovernor::create(Limits{});
  EXPECT_EQ(unlimited->clampPipeCapacity(0), 0u) << "no budget: requests pass through";
  EXPECT_EQ(unlimited->clampPipeCapacity(7), 7u);

  Limits limits;
  limits.maxPipeDepth = 8;
  auto gov = ResourceGovernor::create(limits);
  EXPECT_EQ(gov->clampPipeCapacity(0), 0u) << "0 is not unbounded; Pipe raises it to 1";
  EXPECT_EQ(gov->clampPipeCapacity(100), 8u);
  EXPECT_EQ(gov->clampPipeCapacity(4), 4u) << "requests under the budget pass through";
}

// ---------------------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------------------

TEST(GovernorAdmission, ShedsNewSessionsWithTypedRefusal815) {
  AdmissionConfigGuard guard;
  auto& admission = governor::Admission::global();
  governor::Admission::Config config;
  config.maxSessions = 1;
  admission.configure(config);

  const std::uint64_t sheds0 = admission.sheds();
  Limits limits;
  limits.maxFuel = 1000;
  auto first = ResourceGovernor::create(limits);
  EXPECT_EQ(admission.liveSessions(), 1u);
  EXPECT_EQ(iconErrorNumber([&] { auto second = ResourceGovernor::create(limits); }), 815);
  EXPECT_EQ(admission.sheds() - sheds0, 1u);

  // Releasing the live session frees the slot for the next admit.
  first.reset();
  EXPECT_EQ(admission.liveSessions(), 0u);
  auto third = ResourceGovernor::create(limits);
  EXPECT_EQ(admission.liveSessions(), 1u);
}

TEST(GovernorAdmission, CommittedHeapCeilingCountsAdmittedBudgets) {
  AdmissionConfigGuard guard;
  auto& admission = governor::Admission::global();
  governor::Admission::Config config;
  config.maxCommittedHeapBytes = 1 << 20;
  admission.configure(config);

  Limits big;
  big.maxHeapBytes = 2u << 20;
  EXPECT_EQ(iconErrorNumber([&] { auto gov = ResourceGovernor::create(big); }), 815)
      << "one session asking for more than the process ceiling is shed";

  Limits half;
  half.maxHeapBytes = 512u << 10;
  auto a = ResourceGovernor::create(half);
  auto b = ResourceGovernor::create(half);
  EXPECT_EQ(admission.committedHeapBytes(), 1u << 20);
  EXPECT_EQ(iconErrorNumber([&] { auto c = ResourceGovernor::create(half); }), 815);
  a.reset();
  EXPECT_EQ(admission.committedHeapBytes(), 512u << 10);
}

TEST(GovernorAdmission, LimitlessGovernorsBypassTheGate) {
  AdmissionConfigGuard guard;
  auto& admission = governor::Admission::global();
  governor::Admission::Config config;
  config.maxSessions = 1;
  admission.configure(config);

  Limits limits;
  limits.maxFuel = 1;
  auto governed = ResourceGovernor::create(limits);
  // A limitless governor (congen-run --supervise without --max-*) only
  // provides a StopSource root; it commits nothing and is never shed.
  auto limitless = ResourceGovernor::create(Limits{});
  EXPECT_EQ(admission.liveSessions(), 1u);
}

// ---------------------------------------------------------------------------
// Supervisor watchdog
// ---------------------------------------------------------------------------

TEST(GovernorSupervisor, EscalatesSoftStopThenHardTeardownWithDiagnostics) {
  auto& supervisor = governor::Supervisor::global();
  const std::uint64_t soft0 = supervisor.softStopsIssued();
  const std::uint64_t hard0 = supervisor.hardTeardownsIssued();

  auto gov = ResourceGovernor::create(Limits{});
  std::atomic<bool> diagnosticsRan{false};
  auto watch = supervisor.watch(gov, std::chrono::milliseconds(20), std::chrono::milliseconds(60),
                                [&diagnosticsRan] { diagnosticsRan = true; });

  for (int i = 0; i < 500 && !gov->terminated(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(gov->terminated());
  EXPECT_TRUE(gov->stopToken().cancelled()) << "soft stop precedes the hard teardown";
  EXPECT_TRUE(diagnosticsRan.load()) << "diagnostics run before terminate()";
  EXPECT_GE(supervisor.softStopsIssued() - soft0, 1u);
  EXPECT_GE(supervisor.hardTeardownsIssued() - hard0, 1u);
  EXPECT_EQ(iconErrorNumber([&] { gov->chargeSteps(1); }), 816);
}

TEST(GovernorSupervisor, CancelWaitsOutAnInFlightEscalation) {
  auto gov = ResourceGovernor::create(Limits{});
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  // Both deadlines already due: the next tick escalates straight to the
  // hard teardown, whose diagnostics callback runs for a while.
  auto watch = governor::Supervisor::global().watch(
      gov, std::chrono::milliseconds(0), std::chrono::milliseconds(0), [&] {
        started = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        finished = true;
      });
  while (!started.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The escalation is in flight: cancel() must block until it completes
  // rather than return while diagnostics can still observe the session.
  watch.cancel();
  EXPECT_TRUE(finished.load()) << "cancel() returned while diagnostics still ran";
  EXPECT_TRUE(gov->terminated()) << "cancel() returned before terminate() finished";
}

TEST(GovernorSupervisor, CancelledWatchNeverEscalates) {
  auto gov = ResourceGovernor::create(Limits{});
  auto watch = governor::Supervisor::global().watch(gov, std::chrono::milliseconds(20),
                                                   std::chrono::milliseconds(20));
  watch.cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(gov->terminated());
  EXPECT_FALSE(gov->stopToken().cancelled());
}

// ---------------------------------------------------------------------------
// End-to-end enforcement through the Interpreter
// ---------------------------------------------------------------------------

/// Drive a runaway loop under `quotas` on the given backend and return
/// the IconError number it trips with.
int runawayErrorNumber(interp::Backend backend, const Limits& quotas) {
  interp::Interpreter::Options opts;
  opts.backend = backend;
  opts.quotas = quotas;
  interp::Interpreter interp{opts};
  interp.load("def spin() { while 1 do 0; }");
  return iconErrorNumber([&] { interp.evalAll("spin()"); });
}

TEST(GovernorInterpreter, FuelParityBothBackendsRaise810) {
  Limits quotas;
  quotas.maxFuel = 50000;
  // The headline of the unified fuel counter: the tree walker trips the
  // SAME typed error the VM does, at the same budget.
  EXPECT_EQ(runawayErrorNumber(interp::Backend::kTree, quotas), 810);
  EXPECT_EQ(runawayErrorNumber(interp::Backend::kVm, quotas), 810);
}

TEST(GovernorInterpreter, FuelTripIsCatchableViaErrorConversion) {
  interp::Interpreter::Options opts;
  opts.backend = interp::Backend::kTree;
  opts.quotas.maxFuel = 50000;
  interp::Interpreter interp{opts};
  // One &error credit converts the 810 into failure of the expression it
  // occurred in — the call fails instead of erroring out, exactly like
  // any other convertible run-time error — and &errornumber records it.
  interp.load("def trap() { &error := 1; while 1 do 0; return \"done\"; }");
  EXPECT_TRUE(interp.evalAll("trap()").empty()) << "converted trip fails the call";
  // Grant fresh fuel so the inspection itself can run.
  interp.resourceGovernor()->setLimit(Budget::Fuel, 1u << 20);
  EXPECT_EQ(interp.evalOne("&errornumber")->smallInt(), 810);
}

TEST(GovernorInterpreter, SetquotaCannotEraseHostImposedBudgets) {
  for (const auto backend : {interp::Backend::kTree, interp::Backend::kVm}) {
    interp::Interpreter::Options opts;
    opts.backend = backend;
    opts.quotas.maxFuel = 50000;
    interp::Interpreter interp{opts};
    // The escape attempt: drop the fuel budget, then grab a huge one
    // (either of which used to reset the spent counter too). Both must
    // clamp to the host envelope and leave the epoch alone.
    interp.load(
        "def jail() { setquota(\"fuel\", 0); setquota(\"fuel\", 100000000); while 1 do 0; }");
    EXPECT_EQ(iconErrorNumber([&] { interp.evalAll("jail()"); }), 810);
  }
}

TEST(GovernorInterpreter, SupervisorTerminationIsNotConvertibleViaError) {
  interp::Interpreter::Options opts;
  opts.backend = interp::Backend::kTree;
  opts.governed = true;
  interp::Interpreter interp{opts};
  // A script holding a mountain of &error credit still cannot convert
  // the supervisor's 816 into failure and keep running — termination
  // must unwind, not degrade into one charge batch per credit.
  interp.load("def resist() { &error := 1000000000; while 1 do 0; }");
  auto watch = governor::Supervisor::global().watch(
      interp.resourceGovernor(), std::chrono::milliseconds(20), std::chrono::milliseconds(60));
  EXPECT_EQ(iconErrorNumber([&] { interp.evalAll("resist()"); }), 816);
}

TEST(GovernorInterpreter, DepthQuotaParityBothBackendsRaise813) {
  for (const auto backend : {interp::Backend::kTree, interp::Backend::kVm}) {
    interp::Interpreter::Options opts;
    opts.backend = backend;
    opts.quotas.maxDepth = 16;
    interp::Interpreter interp{opts};
    interp.load("def down(n) { if n <= 0 then return 0; return 1 + down(n - 1); }");
    EXPECT_EQ(iconErrorNumber([&] { interp.evalAll("down(100)"); }), 813);
    // The depth guard unwinds exactly: the interpreter stays usable and
    // recursion under the budget still completes.
    EXPECT_EQ(interp.evalOne("down(8)")->smallInt(), 8);
  }
}

TEST(GovernorInterpreter, HeapQuotaRaises811) {
  interp::Interpreter::Options opts;
  opts.backend = interp::Backend::kTree;
  opts.quotas.maxHeapBytes = 1u << 20;
  interp::Interpreter interp{opts};
  // Accumulate live payload objects until the byte budget trips (each
  // [] is a charged list payload held alive by L).
  interp.load("def hoard() { local L, i; L := []; every i := 1 to 10000000 do put(L, []); }");
  EXPECT_EQ(iconErrorNumber([&] { interp.evalAll("hoard()"); }), 811);
  // Lift the budget: the session is degraded, not poisoned.
  interp.resourceGovernor()->setLimit(Budget::Heap, 0);
  EXPECT_EQ(interp.evalOne("2 + 2")->smallInt(), 4);
}

TEST(GovernorInterpreter, CoexprQuotaRaises812) {
  interp::Interpreter::Options opts;
  opts.backend = interp::Backend::kTree;
  opts.quotas.maxCoexprs = 2;
  interp::Interpreter interp{opts};
  EXPECT_TRUE(interp.evalOne("c1 := |<> 1").has_value());
  EXPECT_TRUE(interp.evalOne("c2 := |<> 2").has_value());
  EXPECT_EQ(iconErrorNumber([&] { interp.evalAll("c3 := |<> 3"); }), 812);
}

TEST(GovernorInterpreter, PipeQuotaRaises812) {
  interp::Interpreter::Options opts;
  opts.backend = interp::Backend::kTree;
  opts.quotas.maxPipes = 1;
  interp::Interpreter interp{opts};
  EXPECT_TRUE(interp.evalOne("p1 := |> (1 to 3)").has_value());
  EXPECT_EQ(iconErrorNumber([&] { interp.evalAll("p2 := |> (1 to 3)"); }), 812);
}

TEST(GovernorInterpreter, PipeDepthClampIsGracefulNotAnError) {
  interp::Interpreter::Options opts;
  opts.backend = interp::Backend::kTree;
  opts.quotas.maxPipeDepth = 4;  // far below the 1024 default capacity
  interp::Interpreter interp{opts};
  // Degradation contract: the pipe shrinks to the budget and the full
  // stream still flows — no quota error, no loss.
  EXPECT_EQ(interp.evalAll("! |> (1 to 1000)").size(), 1000u);
}

TEST(GovernorInterpreter, SupervisorHardTeardownInterruptsARunawayDrive) {
  interp::Interpreter::Options opts;
  opts.backend = interp::Backend::kTree;
  opts.governed = true;  // limitless governor: containment without quotas
  interp::Interpreter interp{opts};
  interp.load("def spin() { while 1 do 0; }");
  auto watch = governor::Supervisor::global().watch(
      interp.resourceGovernor(), std::chrono::milliseconds(20), std::chrono::milliseconds(60));
  EXPECT_EQ(iconErrorNumber([&] { interp.evalAll("spin()"); }), 816);
}

TEST(GovernorInterpreter, ObsRowsAccumulateFuelAndTrips) {
  auto& registry = obs::Registry::global();
  const auto before = registry.snapshot();
  Limits quotas;
  quotas.maxFuel = 50000;
  EXPECT_EQ(runawayErrorNumber(interp::Backend::kTree, quotas), 810);
  const auto after = registry.snapshot();
  EXPECT_GT(after.counterValue("governor.fuel_spent"), before.counterValue("governor.fuel_spent"));
  EXPECT_GE(after.counterValue("governor.quota_trips"),
            before.counterValue("governor.quota_trips") + 1);
}

// ---------------------------------------------------------------------------
// Allocation-failure injection (ArenaAlloc / RcAlloc sites)
// ---------------------------------------------------------------------------

/// Arm exactly one allocation site with certain failure; everything else
/// stays quiet. Disarms on scope exit.
class ScopedAllocFault {
 public:
  explicit ScopedAllocFault(testing::FaultSite site) {
    testing::FaultInjector::instance().arm(42, testing::SitePolicy{});  // zero all sites
    testing::SitePolicy fail;
    fail.failPerMille = 1000;
    testing::FaultInjector::instance().armSite(site, fail);
  }
  ~ScopedAllocFault() { testing::FaultInjector::instance().disarm(); }
};

TEST(GovernorFaultInjection, RcAllocFailureSurfacesAsCatchable305) {
  if (!testing::FaultInjector::compiledIn()) {
    GTEST_SKIP() << "build without CONGEN_FAULT_INJECTION";
  }
  interp::Interpreter interp;
  {
    ScopedAllocFault fault(testing::FaultSite::RcAlloc);
    // The concat result exceeds the SSO capacity, so its heap-spill
    // payload is the first RcAlloc on the path.
    EXPECT_EQ(
        iconErrorNumber([&] { interp.evalAll("\"aaaaaaaaaa\" || \"bbbbbbbbbb\""); }), 305);
  }
  EXPECT_EQ(interp.evalOne("2 + 2")->smallInt(), 4) << "clean error, session survives";
}

TEST(GovernorFaultInjection, ArenaAllocFailureSurfacesAsCatchable305) {
  if (!testing::FaultInjector::compiledIn()) {
    GTEST_SKIP() << "build without CONGEN_FAULT_INJECTION";
  }
  interp::Interpreter interp;
  // A 400-deep alternation holds more same-class kernel nodes live than
  // any bin caches (kMaxPerClass = 128), forcing the fall-through to
  // operator new — the instrumented site — even with warm bins.
  std::string expr = "1";
  for (int i = 0; i < 400; ++i) expr = "(" + expr + " | 1)";
  {
    ScopedAllocFault fault(testing::FaultSite::ArenaAlloc);
    EXPECT_EQ(iconErrorNumber([&] { interp.evalAll(expr); }), 305);
  }
  EXPECT_EQ(interp.evalAll(expr).size(), 401u) << "nodes freed on unwind, arena intact";
}

TEST(GovernorFaultInjection, ProducerSideAllocFailureDoesNotDeadlockThePipe) {
  if (!testing::FaultInjector::compiledIn()) {
    GTEST_SKIP() << "build without CONGEN_FAULT_INJECTION";
  }
  interp::Interpreter interp;
  // The producer allocates a fresh heap string per element (the prefix
  // defeats SSO). Let the pipeline start clean, then arm: the next
  // producer-side allocation fails, the 305 crosses the pipe, and the
  // drain must neither hang nor leak.
  auto gen = interp.eval("! |> (\"xxxxxxxxxxxxxxxxxxxx\" || (1 to 1000000))");
  ASSERT_TRUE(gen->nextValue().has_value());
  {
    ScopedAllocFault fault(testing::FaultSite::RcAlloc);
    EXPECT_EQ(iconErrorNumber([&] {
                while (gen->nextValue()) {
                }
              }),
              305)
        << "the producer's allocation failure surfaces at the consumer";
  }
  gen.reset();
  EXPECT_EQ(interp.evalOne("! |> 42")->smallInt(), 42) << "the pool still serves new work";
}

}  // namespace
}  // namespace congen
