// interp_test.cpp — core goal-directed language semantics through the
// interpreter: every expression is a generator that produces a sequence
// of values or fails.
#include "interp/interpreter.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "builtins/builtins.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"

namespace congen::interp {
namespace {

std::vector<std::int64_t> evalInts(Interpreter& interp, const std::string& src) {
  std::vector<std::int64_t> out;
  for (const auto& v : interp.evalAll(src)) out.push_back(v.requireInt64("test"));
  return out;
}

std::vector<std::int64_t> evalInts(const std::string& src) {
  Interpreter interp;
  return evalInts(interp, src);
}

TEST(EvalBasics, LiteralsAndArithmetic) {
  EXPECT_EQ(evalInts("1 + 2 * 3"), (std::vector<std::int64_t>{7}));
  EXPECT_EQ(evalInts("2 ^ 10"), (std::vector<std::int64_t>{1024}));
  EXPECT_EQ(evalInts("7 % 3"), (std::vector<std::int64_t>{1}));
  Interpreter interp;
  EXPECT_EQ(interp.evalOne("\"a\" || \"b\"")->str(), "ab");
  EXPECT_EQ(interp.evalOne("2.5 + 0.5")->real(), 3.0);
  EXPECT_EQ(interp.evalOne("36rhello")->smallInt(), 29234652) << "radix literal";
}

TEST(EvalBasics, BigIntegerTransparency) {
  Interpreter interp;
  EXPECT_EQ(interp.evalOne("2 ^ 100")->bigInt().toString(), "1267650600228229401496703205376");
  EXPECT_EQ(interp.evalOne("(2^100) / (2^64)")->toDisplayString(), "68719476736")
      << "division demotes back to the small-int fast path";
}

TEST(EvalGenerators, RangeAndAlternation) {
  EXPECT_EQ(evalInts("1 to 5"), (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(evalInts("10 to 1 by -4"), (std::vector<std::int64_t>{10, 6, 2}));
  EXPECT_EQ(evalInts("1 | 5 | 3"), (std::vector<std::int64_t>{1, 5, 3}));
  EXPECT_EQ(evalInts("(1 | 2) + (10 | 20)"), (std::vector<std::int64_t>{11, 21, 12, 22}));
}

TEST(EvalGenerators, FailureIsSilent) {
  Interpreter interp;
  EXPECT_TRUE(interp.evalAll("&fail").empty());
  EXPECT_TRUE(interp.evalAll("3 < 2").empty()) << "failed comparison has no results";
  EXPECT_TRUE(interp.evalAll("3 < 2 & 99").empty()) << "failure propagates through &";
}

TEST(EvalGenerators, ComparisonYieldsRightOperand) {
  EXPECT_EQ(evalInts("2 < 5"), (std::vector<std::int64_t>{5}));
  EXPECT_EQ(evalInts("(1 to 10) > 8"), (std::vector<std::int64_t>{8, 8}));
}

TEST(EvalGenerators, ProductSearch) {
  // The headline example of Section II.
  EXPECT_EQ(evalInts("(1 to 2) * isprime(4 to 7)"), (std::vector<std::int64_t>{5, 7, 10, 14}));
  EXPECT_EQ(evalInts("(i := (1 to 2)) & (j := (4 to 7)) & isprime(j) & i*j"),
            (std::vector<std::int64_t>{5, 7, 10, 14}))
      << "explicit iterator-product decomposition agrees";
}

TEST(EvalGenerators, LimitAndBounded) {
  EXPECT_EQ(evalInts("(1 to 100) \\ 3"), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(evalInts("(1 to 5; 7 to 9)"), (std::vector<std::int64_t>{7, 8, 9}))
      << "sequence bounds all but the last term";
}

TEST(EvalAssignment, VariablesAndAugmented) {
  Interpreter interp;
  interp.evalOne("x := 5");
  EXPECT_EQ(interp.evalOne("x")->smallInt(), 5);
  interp.evalOne("x +:= 10");
  EXPECT_EQ(interp.evalOne("x")->smallInt(), 15);
  interp.evalOne("y := 1");
  interp.evalOne("x :=: y");
  EXPECT_EQ(interp.evalOne("x")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("y")->smallInt(), 15);
}

TEST(EvalAssignment, ReversalThroughSubscript) {
  Interpreter interp;
  interp.evalOne("l := [10, 20, 30]");
  interp.evalOne("l[2] := 99");
  EXPECT_EQ(interp.evalOne("l[2]")->smallInt(), 99);
  interp.evalOne("l[-1] +:= 1");
  EXPECT_EQ(interp.evalOne("l[3]")->smallInt(), 31);
}

TEST(EvalStructures, ListsTablesSets) {
  Interpreter interp;
  EXPECT_EQ(interp.evalOne("*[1,2,3]")->smallInt(), 3);
  EXPECT_EQ(evalInts(interp, "![10,20]"), (std::vector<std::int64_t>{10, 20}));
  interp.evalOne("t := table(0)");
  interp.evalOne("t[\"k\"] := 7");
  EXPECT_EQ(interp.evalOne("t[\"k\"]")->smallInt(), 7);
  EXPECT_EQ(interp.evalOne("t[\"missing\"]")->smallInt(), 0) << "table default";
  EXPECT_EQ(interp.evalOne("t.k")->smallInt(), 7) << "field sugar over tables";
  interp.evalOne("s := set()");
  interp.evalOne("insert(s, 5)");
  EXPECT_EQ(interp.evalOne("member(s, 5)")->smallInt(), 5);
  EXPECT_TRUE(interp.evalAll("member(s, 6)").empty());
}

TEST(EvalProcedures, GeneratorFunctions) {
  Interpreter interp;
  interp.load("def firstN(n) { local i; every i := 1 to n do suspend i * i; }");
  EXPECT_EQ(evalInts(interp, "firstN(4)"), (std::vector<std::int64_t>{1, 4, 9, 16}));
  EXPECT_EQ(evalInts(interp, "firstN(2) + firstN(2)"),
            (std::vector<std::int64_t>{2, 5, 5, 8})) << "generator calls participate in products";
}

TEST(EvalProcedures, SuspendExpressionGeneratesAll) {
  Interpreter interp;
  interp.load("def g() { suspend 1 to 3; }");
  EXPECT_EQ(evalInts(interp, "g()"), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(EvalProcedures, ReturnAndFail) {
  Interpreter interp;
  interp.load(R"(
    def pick(x) { if x % 2 == 0 then return x; fail; }
    def nothing() { }
  )");
  EXPECT_EQ(evalInts(interp, "pick(4)"), (std::vector<std::int64_t>{4}));
  EXPECT_TRUE(interp.evalAll("pick(3)").empty());
  EXPECT_EQ(evalInts(interp, "pick(1 to 10)"), (std::vector<std::int64_t>{2, 4, 6, 8, 10}))
      << "failure resumes the argument generator";
  EXPECT_TRUE(interp.evalAll("nothing()").empty()) << "falling off the end fails";
}

TEST(EvalProcedures, VariadicConvention) {
  Interpreter interp;
  interp.load("def f(a, b) { return type(b); }");
  EXPECT_EQ(interp.evalOne("f(1)")->str(), "null") << "missing args are &null";
  EXPECT_EQ(interp.evalOne("f(1, 2, 3)")->str(), "integer") << "extras ignored";
}

TEST(EvalProcedures, Recursion) {
  Interpreter interp;
  interp.load("def fact(n) { if n <= 1 then return 1; return n * fact(n - 1); }");
  EXPECT_EQ(interp.evalOne("fact(10)")->smallInt(), 3628800);
  EXPECT_EQ(interp.evalOne("fact(25)")->bigInt().toString(), "15511210043330985984000000");
}

TEST(EvalProcedures, MutualRecursion) {
  Interpreter interp;
  interp.load(R"(
    def isEven(n) { if n == 0 then return 1; return isOdd(n - 1); }
    def isOdd(n) { if n == 0 then return 0; return isEven(n - 1); }
  )");
  EXPECT_EQ(interp.evalOne("isEven(10)")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("isEven(7)")->smallInt(), 0);
}

TEST(EvalProcedures, FirstClassAndAlternatedCallees) {
  Interpreter interp;
  interp.load(R"(
    def d(x) { return x * 2; }
    def t(x) { return x * 3; }
  )");
  // (f | g)(x) ≡ f(x) | g(x)  (Section II).
  EXPECT_EQ(evalInts(interp, "(d | t)(5)"), (std::vector<std::int64_t>{10, 15}));
  interp.evalOne("h := d");
  EXPECT_EQ(evalInts(interp, "h(4)"), (std::vector<std::int64_t>{8})) << "procedures are values";
}

TEST(EvalScoping, LocalsShadowGlobals) {
  Interpreter interp;
  interp.evalOne("x := 100");
  interp.load("def f() { local x; x := 1; return x; }");
  EXPECT_EQ(interp.evalOne("f()")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("x")->smallInt(), 100) << "global untouched";
}

TEST(EvalScoping, GlobalsVisibleInProcedures) {
  Interpreter interp;
  interp.evalOne("base := 10");
  interp.load("def f(n) { return base + n; }");
  EXPECT_EQ(interp.evalOne("f(5)")->smallInt(), 15);
}

TEST(EvalScoping, UndeclaredAreImplicitlyLocalPerCall) {
  Interpreter interp;
  interp.load(R"(
    def probe() {
      if type(c) == "integer" then return 99;  # would fire if c leaked
      c := 1;
      return c;
    }
  )");
  // c is local: each call starts fresh (undeclared = local in Icon).
  EXPECT_EQ(interp.evalOne("probe()")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("probe()")->smallInt(), 1);
}

TEST(EvalControl, LoopsAndBreakNext) {
  Interpreter interp;
  interp.load(R"(
    def collatzLen(n) {
      local len;
      len := 0;
      while n ~= 1 do {
        if n % 2 == 0 then n := n / 2; else n := 3 * n + 1;
        len +:= 1;
      };
      return len;
    }
    def firstSquareOver(lim) {
      local i;
      every i := 1 to 1000 do {
        if i * i > lim then return i * i;
      };
      fail;
    }
  )");
  EXPECT_EQ(interp.evalOne("collatzLen(27)")->smallInt(), 111);
  EXPECT_EQ(interp.evalOne("firstSquareOver(50)")->smallInt(), 64);
}

TEST(EvalControl, UntilAndRepeat) {
  Interpreter interp;
  interp.load(R"(
    def countTo(n) {
      local c;
      c := 0;
      until c >= n do c +:= 1;
      return c;
    }
    def firstPow2Over(n) {
      local p;
      p := 1;
      repeat { p *:= 2; if p > n then break; };
      return p;
    }
  )");
  EXPECT_EQ(interp.evalOne("countTo(7)")->smallInt(), 7);
  EXPECT_EQ(interp.evalOne("firstPow2Over(100)")->smallInt(), 128);
}

TEST(EvalControl, IfIsAGenerator) {
  EXPECT_EQ(evalInts("if 1 < 2 then 1 to 3 else 9"), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(evalInts("if 2 < 1 then 1 to 3 else 9"), (std::vector<std::int64_t>{9}));
  EXPECT_TRUE(Interpreter().evalAll("if 2 < 1 then 5").empty());
}

TEST(EvalControl, NotInverts) {
  Interpreter interp;
  EXPECT_FALSE(interp.evalAll("not (1 < 2)").size());
  EXPECT_EQ(interp.evalAll("not (2 < 1)").size(), 1u);
}

TEST(EvalStrings, BuiltinsWork) {
  Interpreter interp;
  EXPECT_EQ(evalInts(interp, "find(\"an\", \"banana\")"), (std::vector<std::int64_t>{2, 4}));
  EXPECT_EQ(interp.evalOne("*split(\"a b  c\")")->smallInt(), 3);
  EXPECT_EQ(interp.evalOne("reverse(\"abc\")")->str(), "cba");
  EXPECT_EQ(interp.evalOne("map(\"HELLO\")")->str(), "hello");
  EXPECT_EQ(interp.evalOne("\"hello\"[2]")->str(), "e");
}

TEST(EvalErrors, RuntimeErrorsAreIconErrors) {
  Interpreter interp;
  EXPECT_THROW(interp.evalAll("1 / 0"), IconError);
  EXPECT_THROW(interp.evalAll("\"abc\" + 1"), IconError);
  EXPECT_THROW(interp.evalAll("5(1)"), IconError) << "calling a non-procedure";
  EXPECT_THROW(interp.evalAll("!42"), IconError);
}

TEST(EvalHostInterop, NativeRegistrationAndGlobals) {
  Interpreter interp;
  int calls = 0;
  interp.registerNative("host", builtins::makeNative("host", [&calls](std::vector<Value>& args) {
    ++calls;
    return ops::mul(args.at(0), Value::integer(10));
  }));
  interp.defineGlobal("data", Value::integer(7));
  EXPECT_EQ(interp.evalOne("host(data)")->smallInt(), 70);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(interp.evalOne("this::host(3)")->smallInt(), 30) << ":: cut-through";
  EXPECT_EQ(interp.global("data")->smallInt(), 7);
}

TEST(EvalHostInterop, CallLoadedProcedureFromHost) {
  Interpreter interp;
  interp.load("def add3(a, b, c) { return a + b + c; }");
  auto gen = interp.call("add3", {Value::integer(1), Value::integer(2), Value::integer(3)});
  EXPECT_EQ(gen->nextValue()->smallInt(), 6);
  EXPECT_THROW(interp.call("nosuch", {}), IconError);
  EXPECT_EQ(interp.call("sqrt", {Value::integer(16)})->nextValue()->real(), 4.0)
      << "builtins reachable through call()";
}

// A body releases its tree as it parks for reuse, so a pooled body pins
// nothing its last call left behind.

Interpreter::Options onBackend(Backend backend) {
  Interpreter::Options options;
  options.backend = backend;
  return options;
}

TEST(BodyRelease, PipeAbandonedByReturnStopsWithTheCall) {
  obs::enableMetrics();
  auto& pipes = obs::PipeStats::get().live;
  auto& depth = obs::QueueStats::get().depth;
  for (const Backend backend : {Backend::kTree, Backend::kVm}) {
    SCOPED_TRACE(backend == Backend::kVm ? "vm" : "tree");
    Interpreter interp(onBackend(backend));
    interp.load("def h(p) { return !p; }  def run() { return h(|> (1 to 1000000)); }");
    const auto pipes0 = pipes.value();
    const auto depth0 = depth.value();
    // `return` leaves h's `!p` mid-stream over a producer that fills its
    // ring and blocks; neither parked body (h's, run's) may keep it alive.
    EXPECT_EQ(interp.evalOne("run()")->smallInt(), 1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((pipes.value() != pipes0 || depth.value() != depth0) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(pipes.value() - pipes0, 0) << "pipe.live after h returned";
    EXPECT_EQ(depth.value() - depth0, 0) << "queue.depth after h returned";
  }
  obs::disableMetrics();
}

TEST(BodyRelease, ReloadedRecursiveProcedureIsFreed) {
  const char* src = "def f(n) { if n <= 0 then return 0; return f(n - 1); }";
  for (const Backend backend : {Backend::kTree, Backend::kVm}) {
    SCOPED_TRACE(backend == Backend::kVm ? "vm" : "tree");
    Interpreter interp(onBackend(backend));
    interp.load(src);
    EXPECT_EQ(interp.evalOne("f(5)")->smallInt(), 0);
    const ProcPtr old = interp.global("f")->proc();
    interp.load(src);
    ASSERT_NE(interp.global("f")->proc().get(), old.get());
    // The old f's parked bodies called f: holding its value would be a
    // cycle pool -> body -> f -> pool that outlives the redefinition.
    EXPECT_EQ(old.use_count(), 1) << "the replaced procedure is still referenced";
  }
}

}  // namespace
}  // namespace congen::interp
