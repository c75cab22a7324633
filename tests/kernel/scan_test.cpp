// scan_test.cpp — string scanning: the `?` operator, the reversible
// matching functions (tab/move), &subject/&pos, and the analysis
// builtins' defaulting to the scanning environment.
#include "kernel/scan.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "interp/interpreter.hpp"
#include "runtime/error.hpp"

namespace congen {
namespace {

using test::ci;

GenPtr cs(const std::string& s) { return ConstGen::create(Value::string(s)); }

TEST(ScanEnvTest, DefaultEnvironmentIsEmptySubject) {
  EXPECT_EQ(ScanEnv::current().subject.str(), "");
  EXPECT_EQ(ScanEnv::current().pos, 1);
  EXPECT_EQ(ScanEnv::depth(), 0u);
}

TEST(ScanEnvTest, ResolvePositionConvention) {
  ScanEnv::State s;
  s.subject = Value::string("abcd");
  ScanEnv::push(s);
  EXPECT_EQ(ScanEnv::resolvePos(1), 1);
  EXPECT_EQ(ScanEnv::resolvePos(5), 5) << "n+1 is valid (past the end)";
  EXPECT_EQ(ScanEnv::resolvePos(0), 5) << "0 means the end";
  EXPECT_EQ(ScanEnv::resolvePos(-1), 4);
  EXPECT_FALSE(ScanEnv::resolvePos(6).has_value());
  EXPECT_FALSE(ScanEnv::resolvePos(-5).has_value());
  ScanEnv::pop();
}

TEST(ScanGenTest, EstablishesAndRestoresEnvironment) {
  // "abc" ? &subject — the body sees the subject; afterwards the outer
  // environment is back.
  auto g = ScanGen::create(cs("abc"), makeSubjectVarGen());
  EXPECT_EQ(g->nextValue()->str(), "abc");
  EXPECT_FALSE(g->nextValue().has_value());
  EXPECT_EQ(ScanEnv::depth(), 0u) << "environment popped after the scan";
}

TEST(ScanGenTest, TabProducesSpannedSubstring) {
  // "hello" ? tab(3) → "he", leaving &pos at 3.
  auto g = ScanGen::create(cs("hello"), makeTabGen(ci(3)));
  EXPECT_EQ(g->nextValue()->str(), "he");
}

TEST(ScanGenTest, TabIsReversibleOnBacktracking) {
  // "abcd" ? (tab(2 | 3)): first alternative yields "a"; forcing the
  // next result must UNDO the first tab before trying tab(3) → "ab".
  auto g = ScanGen::create(cs("abcd"), makeTabGen(AltGen::create(ci(2), ci(3))));
  EXPECT_EQ(g->nextValue()->str(), "a");
  EXPECT_EQ(g->nextValue()->str(), "ab") << "second alternative starts from the restored pos";
  EXPECT_FALSE(g->nextValue().has_value());
}

TEST(ScanGenTest, TabRestartKeepsTheMoveAndResumptionUndoesIt) {
  ScanEnv::push(ScanEnv::State{Value::string("abcd"), 1});
  auto m = makeMoveGen(ci(1));
  EXPECT_EQ(m->nextValue()->str(), "a");
  m->restart();
  EXPECT_EQ(ScanEnv::current().pos, 2) << "restart does not undo";
  EXPECT_EQ(m->nextValue()->str(), "b") << "the new cycle moves on from the kept position";
  EXPECT_FALSE(m->nextValue().has_value());
  EXPECT_EQ(ScanEnv::current().pos, 2) << "resumption undoes";
  ScanEnv::pop();
}

TEST(ScanGenTest, MoveIsRelative) {
  // "hello" ? (tab(3) || move(2)) — "he" then "ll".
  auto g = ScanGen::create(
      cs("hello"), makeBinaryOpGen("||", makeTabGen(ci(3)), makeMoveGen(ci(2))));
  EXPECT_EQ(g->nextValue()->str(), "hell");
}

TEST(ScanGenTest, OutOfRangeTabFails) {
  auto g = ScanGen::create(cs("ab"), makeTabGen(ci(99)));
  EXPECT_FALSE(g->nextValue().has_value());
  EXPECT_EQ(ScanEnv::depth(), 0u);
}

TEST(ScanGenTest, MultipleSubjects) {
  // ("ab" | "xyz") ? tab(0) — scans each subject in turn.
  auto g = ScanGen::create(AltGen::create(cs("ab"), cs("xyz")), makeTabGen(ci(0)));
  EXPECT_EQ(g->nextValue()->str(), "ab");
  EXPECT_EQ(g->nextValue()->str(), "xyz");
  EXPECT_FALSE(g->nextValue().has_value());
}

TEST(ScanGenTest, NestedScans) {
  // "ab" ? ("cd" ? &subject || move(1)) — inner scan sees "cd"; after it
  // completes, the outer environment ("ab", pos 1) is current again.
  auto inner = ScanGen::create(cs("cd"), makeSubjectVarGen());
  auto g = ScanGen::create(cs("ab"),
                           makeBinaryOpGen("||", std::move(inner), makeMoveGen(ci(1))));
  EXPECT_EQ(g->nextValue()->str(), "cda");
  EXPECT_EQ(ScanEnv::depth(), 0u);
}

// --- language level ----------------------------------------------------

std::vector<std::string> evalStrs(interp::Interpreter& interp, const std::string& src) {
  std::vector<std::string> out;
  for (const auto& v : interp.evalAll(src)) out.push_back(v.toDisplayString());
  return out;
}

TEST(ScanLang, BasicMatchExpressions) {
  interp::Interpreter interp;
  EXPECT_EQ(interp.evalOne("\"hello world\" ? tab(6)")->str(), "hello");
  EXPECT_EQ(interp.evalOne("\"hello\" ? (tab(3) || tab(0))")->str(), "hello");
  EXPECT_EQ(interp.evalOne("\"banana\" ? tab(find(\"nan\"))")->str(), "ba")
      << "find defaults to &subject";
  EXPECT_TRUE(interp.evalAll("\"abc\" ? tab(find(\"zz\"))").empty());
}

TEST(ScanLang, SubjectAndPosKeywords) {
  interp::Interpreter interp;
  EXPECT_EQ(interp.evalOne("\"abc\" ? &subject")->str(), "abc");
  EXPECT_EQ(interp.evalOne("\"abc\" ? (tab(2) & &pos)")->smallInt(), 2);
  EXPECT_EQ(interp.evalOne("\"abcdef\" ? (&pos := 3 & tab(5))")->str(), "cd")
      << "&pos is assignable";
  EXPECT_EQ(interp.evalOne("&subject")->str(), "") << "outside a scan: empty default";
}

TEST(ScanLang, ClassicSplitIdiom) {
  interp::Interpreter interp;
  interp.load(R"(
    def fields(s) {
      local out;
      out := [];
      s ? while not pos(0) do {
        put(out, tab(upto(",") | 0));
        move(1);
      };
      return out;
    }
  )");
  EXPECT_EQ(interp.evalOne("image(fields(\"a,bb,ccc\"))")->str(), "[\"a\",\"bb\",\"ccc\"]");
  EXPECT_EQ(interp.evalOne("image(fields(\"one\"))")->str(), "[\"one\"]");
}

TEST(ScanLang, BacktrackingSearchInsideScan) {
  // Generate every word that is followed by "!": scanning + goal
  // direction working together.
  interp::Interpreter interp;
  interp.load(R"(
    def shouted(s) {
      s ? suspend tab(upto("!")) & (move(1) & "") & 1;
    }
  )");
  EXPECT_EQ(interp.evalAll("\"ab! cd!\" ? 1").size(), 1u);
  EXPECT_EQ(evalStrs(interp, "shouted(\"hi! yo!\")").size(), 2u)
      << "both '!' positions explored by backtracking";
}

TEST(ScanLang, AnalysisDefaultsInsideScan) {
  interp::Interpreter interp;
  EXPECT_EQ(interp.evalOne("\"  lead\" ? (tab(many(\" \")) & tab(0))")->str(), "lead");
  EXPECT_EQ(interp.evalOne("\"banana\" ? (tab(3) & upto(\"a\"))")->smallInt(), 4)
      << "upto starts at &pos";
  EXPECT_EQ(interp.evalOne("\"foo=1\" ? (tab(match(\"foo=\")) & tab(0))")->str(), "1");
}

TEST(ScanLang, ScanResultIsBodysResult) {
  interp::Interpreter interp;
  EXPECT_EQ(interp.evalOne("x := \"abc\" ? 42")->smallInt(), 42);
  EXPECT_TRUE(interp.evalAll("\"abc\" ? &fail").empty());
  EXPECT_EQ(interp.evalOne("42 ? &subject")->str(), "42")
      << "numeric subjects coerce to strings, as in Icon";
  EXPECT_THROW(interp.evalAll("[1] ? 1"), IconError) << "lists are not subjects";
}

TEST(ScanLang, PipesGetFreshScanEnvironment) {
  // Scanning state is thread-local: a pipe body scans independently.
  interp::Interpreter interp;
  EXPECT_EQ(interp.evalOne("! |> (\"xyz\" ? tab(0))")->str(), "xyz");
}

}  // namespace
}  // namespace congen
