// vm_differential_test.cpp — property-based differential testing of the
// tree-walking backend against the bytecode VM. A seeded generator
// produces random-but-bounded programs over the constructs where the
// two backends have genuinely separate implementations — suspend/resume
// through procedure calls, goal-directed failure propagation,
// alternation/limit/repeated-alternation, `every` loops with
// break/next, co-expressions (`create`/`@`/`^`), pipes (`|>`), the
// reversible `<-`/`<->` (bounded and resumed), and &error conversion —
// and both backends must agree byte-for-byte on
// stdout, on the drained result count, and on the terminating run-time
// error (if any). Every failure message carries the seed and the full
// program text, so any divergence reproduces deterministically.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "interp/interpreter.hpp"
#include "kernel/error_env.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"

namespace congen::interp {
namespace {

/// Deterministic program generator. Termination is by construction:
/// ranges have literal bounds, repeated alternation only appears under
/// a limit, `while` loops count a local up to a literal, and generated
/// procedures only call lower-numbered procedures (the call graph is a
/// DAG). Known, documented backend divergences are simply not in the
/// grammar (see docs/INTERNALS.md §13).
class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string program() {
    nProcs_ = irand(0, 2);
    std::ostringstream os;
    for (int i = 0; i < nProcs_; ++i) os << proc(i);
    callLimit_ = nProcs_;
    os << "procedure main(args)\n  local v, w, c\n";
    const int stmts = irand(2, 4);
    for (int i = 0; i < stmts; ++i) os << "  " << stmt() << ";\n";
    os << "end\n";
    return os.str();
  }

 private:
  int irand(int lo, int hi) { return lo + static_cast<int>(rng_() % (hi - lo + 1)); }

  std::string lit() { return std::to_string(irand(-3, 9)); }
  std::string posLit() { return std::to_string(irand(1, 9)); }

  /// Single-valued integer-ish expression (may fail, may call procs).
  std::string expr(int depth) {
    if (depth >= 3) return lit();
    switch (irand(0, 7)) {
      case 0:
      case 1:
        return lit();
      case 2:
        return "(" + expr(depth + 1) + " " + pick({"+", "-", "*"}) + " " + expr(depth + 1) + ")";
      case 3:
        return "(" + expr(depth + 1) + " ^ " + std::to_string(irand(0, 3)) + ")";
      case 4:
        return "(-" + expr(depth + 1) + ")";
      case 5:
        return "(" + expr(depth + 1) + " " + pick({"<", "<=", ">", ">=", "=", "~="}) + " " +
               expr(depth + 1) + ")";
      case 6:
        // Only lower-numbered procedures are callable from here, so the
        // generated call graph is a DAG and recursion is impossible.
        if (callLimit_ > 0) {
          return "p" + std::to_string(irand(0, callLimit_ - 1)) + "(" + expr(depth + 1) + ", " +
                 expr(depth + 1) + ")";
        }
        return lit();
      default:
        return "isprime(" + expr(depth + 1) + ")";
    }
  }

  /// Generator expression: a finite sequence of zero or more values.
  std::string seq(int depth) {
    if (depth >= 3) return "(" + lit() + " to " + lit() + ")";
    switch (irand(0, 6)) {
      case 0:
        return "(" + lit() + " to " + lit() + ")";
      case 1:
        return "(" + lit() + " to " + lit() + " by " + pick({"-2", "-1", "1", "2", "3"}) + ")";
      case 2:
        return "(" + seq(depth + 1) + " | " + seq(depth + 1) + ")";
      case 3:
        // Repeated alternation stays finite only under a limit.
        return "((|" + seq(depth + 1) + ") \\ " + posLit() + ")";
      case 4:
        return "(" + seq(depth + 1) + " \\ " + posLit() + ")";
      case 5:
        return "(" + seq(depth + 1) + " & " + seq(depth + 1) + ")";
      default:
        return expr(depth + 1);
    }
  }

  std::string stmt() {
    switch (irand(0, 11)) {
      case 0:
        return "every v := " + seq(0) + " do write(v + " + lit() + ")";
      case 1:
        return "every write(" + seq(0) + ")";
      case 2:
        return "w := " + expr(0) + "; write(w | \"failed\")";
      case 3:
        return "if " + expr(0) + " < " + expr(0) + " then write(\"t\") else write(\"f\")";
      case 4:
        return "v := 0; while v < " + posLit() + " do { write(v); v := v + 1 }";
      case 5:
        // `next` in body position: skip large elements.
        return "every v := " + seq(0) + " do { if v > " + lit() + " then next; write(v) }";
      case 6:
        return "every v := " + seq(0) + " do { if v > " + lit() + " then break; write(v) }";
      case 7:
        // Co-expression activation plus a refreshed copy (`^`). Only
        // `c` ever holds a co-expression, and `c` is only activated,
        // never written raw: the display form of a co-expression embeds
        // its heap address, which no two runs share.
        return "c := create " + seq(0) + "; every 1 to " + posLit() +
               " do write(@c | \"done\"); c := ^c; write(@c | \"no\")";
      case 8:
        // A pipe producer drained through promotion, then &error
        // conversion of a coercion fault into failure.
        return "every write(! (|> " + seq(0) + "))";
      case 9:
        // Reversible assignment: bounded in a loop body and as a while
        // body (the assignment stands), resumed in a conjunction (undone).
        return "v := " + lit() + "; every 1 to " + posLit() + " do { write(v); (v <- v + " +
               lit() + ") }; w := 0; while w < " + posLit() +
               " do (w <- w + 1); every write((v <- " + seq(0) + ") & v > " + lit() +
               " & v); write(v, \" \", w)";
      case 10:
        // Reversible exchange: bounded in a loop body (stands), resumed
        // in a conjunction (undone).
        return "v := " + lit() + "; w := " + lit() + "; every 1 to " + posLit() +
               " do (v <-> w); write(v, \",\", w); ((v <-> w) & v > " + lit() +
               " & write(v)) | write(v, \";\", w)";
      default:
        return "&error := 2; every write((" + expr(0) +
               " + \"x\") | \"converted\"); write(&errornumber | \"noerr\")";
    }
  }

  std::string proc(int i) {
    callLimit_ = i;
    std::ostringstream os;
    os << "procedure p" << i << "(a, b)\n  local i\n";
    switch (irand(0, 3)) {
      case 0:
        os << "  every i := " << seq(1) << " do suspend i + a\n";
        os << "  if a < b then return a + b\n  fail\n";
        break;
      case 1:
        os << "  suspend " << seq(1) << "\n  suspend b\n";
        break;
      case 2:
        // Each suspended assignment is undone when the caller resumes.
        os << "  every i := " << seq(1) << " do suspend (a <- a + i)\n  return a\n";
        break;
      default:
        os << "  if a > b then fail\n  return " << expr(1) << "\n";
        break;
    }
    os << "end\n";
    return os.str();
  }

  std::string pick(std::initializer_list<const char*> xs) {
    return *(xs.begin() + irand(0, static_cast<int>(xs.size()) - 1));
  }

  std::mt19937_64 rng_;
  int nProcs_ = 0;
  int callLimit_ = 0;  // procedures callable from the current body
};

struct Outcome {
  std::string out;
  int results = 0;
  int errNumber = 0;  // 0 = ran to completion

  bool operator==(const Outcome& o) const {
    return out == o.out && results == o.results && errNumber == o.errNumber;
  }
};

Outcome runProgram(const std::string& src, Backend backend) {
  // &error conversion credit is per-thread by design (kernel/error_env),
  // so a generated program that banked credits would otherwise leak them
  // into the *next* program's run on this thread — a one-sided leak,
  // since the first backend's run would also spend them. Each run starts
  // from a clean slate.
  ErrorEnv::current() = ErrorEnv::State{};
  Outcome r;
  ::testing::internal::CaptureStdout();
  try {
    Interpreter::Options opts;
    opts.backend = backend;
    Interpreter interp{opts};
    interp.load(src);
    auto gen = interp.call("main", {Value::list(ListImpl::create())});
    while (gen->nextValue()) ++r.results;
  } catch (const IconError& e) {
    r.errNumber = e.number();
  }
  r.out = ::testing::internal::GetCapturedStdout();
  return r;
}

/// 100 programs per shard x 10 shards = the ~1k-program budget, split
/// so ctest can run shards in parallel and a failure names its shard.
class VmDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmDifferential, TreeAndVmAgree) {
  const std::uint64_t shard = GetParam();
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t seed = shard * 1000003ull + static_cast<std::uint64_t>(i);
    ProgramGen g(seed);
    const std::string src = g.program();
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + src);
    const Outcome tree = runProgram(src, Backend::kTree);
    const Outcome vm = runProgram(src, Backend::kVm);
    EXPECT_EQ(tree.out, vm.out);
    EXPECT_EQ(tree.results, vm.results);
    EXPECT_EQ(tree.errNumber, vm.errNumber);
    if (::testing::Test::HasFailure()) return;  // one reproducer is enough
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, VmDifferential, ::testing::Range<std::uint64_t>(0, 10));

/// Reversible effects are undone on resumption only, so a bounded `<-`,
/// `<->`, tab or move keeps its effect. Both backends print Icon's output.
TEST(ReversibleEffects, BothBackendsPrintIconOutput) {
  const std::pair<const char*, const char*> cases[] = {
      {"x := 1; every (1 to 3) do { write(x); (x <- x + 1); }; write(x)", "1\n2\n3\n4\n"},
      {"x := 0; while (x < 3) do (x <- x + 1); write(x)", "3\n"},
      {"x := 1; every write((x <- (5 | 6)) & x > 5 & x); write(x)", "6\n1\n"},
      {"x := 1; y := 2; every (1 to 3) do (x <-> y); write(x, y)", "21\n"},
      {"x := 1; y := 2; ((x <-> y) & x > 5) | write(x, y)", "12\n"},
      {"\"abcdef\" ? { every (1 to 2) do move(2); write(&pos) }", "5\n"},
      {"\"abcdef\" ? { (tab(4) & move(10)) | write(&pos) }", "1\n"},
  };
  for (const auto& [body, expected] : cases) {
    const std::string src =
        std::string("procedure main(args)\n  local x, y\n  ") + body + "\nend\n";
    SCOPED_TRACE(src);
    for (const Backend backend : {Backend::kTree, Backend::kVm}) {
      const Outcome r = runProgram(src, backend);
      EXPECT_EQ(r.out, expected) << (backend == Backend::kVm ? "vm" : "tree");
      EXPECT_EQ(r.errNumber, 0);
    }
  }
}

}  // namespace
}  // namespace congen::interp
