// case_slice_test.cpp — kernel-level tests for CaseGen, slices, records
// and the null-test operators.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "interp/interpreter.hpp"
#include "runtime/error.hpp"
#include "runtime/record.hpp"
#include "runtime/var.hpp"

namespace congen {
namespace {

using test::ci;
using test::ints;
using test::range;

TEST(CaseGenTest, FirstMatchWins) {
  std::vector<CaseGen::Branch> branches;
  branches.push_back({ci(1), ci(10)});
  branches.push_back({ci(1), ci(20)});  // shadowed by the first
  auto g = CaseGen::create(ci(1), std::move(branches));
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{10}));
}

TEST(CaseGenTest, BranchValueGenerators) {
  // A branch value that generates several alternatives matches any.
  std::vector<CaseGen::Branch> branches;
  branches.push_back({range(5, 9), ConstGen::create(Value::string("mid"))});
  branches.push_back({nullptr, ConstGen::create(Value::string("other"))});
  auto g = CaseGen::create(ci(7), std::move(branches));
  EXPECT_EQ(g->nextValue()->str(), "mid");
}

TEST(CaseGenTest, DefaultAndFailure) {
  std::vector<CaseGen::Branch> b1;
  b1.push_back({ci(1), ci(10)});
  b1.push_back({nullptr, ci(99)});
  EXPECT_EQ(ints(CaseGen::create(ci(2), std::move(b1))), (std::vector<std::int64_t>{99}));

  std::vector<CaseGen::Branch> b2;
  b2.push_back({ci(1), ci(10)});
  EXPECT_TRUE(ints(CaseGen::create(ci(2), std::move(b2))).empty()) << "no match, no default";

  std::vector<CaseGen::Branch> b3;
  b3.push_back({ci(1), ci(10)});
  EXPECT_TRUE(ints(CaseGen::create(FailGen::create(), std::move(b3))).empty())
      << "failing control fails the case";
}

TEST(CaseGenTest, SelectedBranchDelegates) {
  std::vector<CaseGen::Branch> branches;
  branches.push_back({ci(1), range(7, 9)});
  auto g = CaseGen::create(ci(1), std::move(branches));
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{7, 8, 9}));
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{7, 8, 9})) << "restart re-decides";
}

TEST(SliceGenTest, StringsAndLists) {
  auto s = ConstGen::create(Value::string("generators"));
  EXPECT_EQ(makeSliceGen(std::move(s), ci(1), ci(4))->nextValue()->str(), "gen");
  const Value l = test::listOf({1, 2, 3, 4});
  auto g = makeSliceGen(ConstGen::create(l), ci(2), ci(4));
  EXPECT_EQ(g->nextValue()->image(), "[2,3]");
  EXPECT_FALSE(makeSliceGen(ConstGen::create(l), ci(1), ci(99))->nextValue().has_value());
  EXPECT_THROW(makeSliceGen(ci(5), ci(1), ci(2))->nextValue(), IconError);
}

TEST(SliceGenTest, GeneratorBounds) {
  // s[(1|2):4] generates both slices — slices sit in the operand product.
  auto g = makeSliceGen(ConstGen::create(Value::string("abcd")),
                        AltGen::create(ci(1), ci(2)), ci(4));
  EXPECT_EQ(g->nextValue()->str(), "abc");
  EXPECT_EQ(g->nextValue()->str(), "bc");
  EXPECT_FALSE(g->nextValue().has_value());
}

TEST(NullTestOps, KernelLevel) {
  auto x = CellVar::create(Value::integer(5));
  auto nonNull = makeUnaryOpGen("\\", VarGen::create(x));
  auto r = nonNull->next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value.smallInt(), 5);
  ASSERT_NE(r->ref, nullptr) << "\\x preserves the variable for assignment";

  auto isNull = makeUnaryOpGen("/", VarGen::create(x));
  EXPECT_FALSE(isNull->nextValue().has_value());
  x->set(Value::null());
  auto r2 = makeUnaryOpGen("/", VarGen::create(x))->next();
  ASSERT_TRUE(r2.has_value());
  ASSERT_NE(r2->ref, nullptr);
  r2->ref->set(Value::integer(1));  // the /x := default idiom
  EXPECT_EQ(x->get().smallInt(), 1);
}

TEST(RecordKernel, TypeAndInstance) {
  auto type = RecordType::create("point", {"x", "y"});
  EXPECT_EQ(type->arity(), 2u);
  EXPECT_EQ(type->fieldIndex("y"), 1u);
  EXPECT_FALSE(type->fieldIndex("z").has_value());

  auto rec = RecordImpl::create(type, {Value::integer(3)});
  EXPECT_EQ(rec->field("x")->smallInt(), 3);
  EXPECT_TRUE(rec->field("y")->isNull()) << "missing constructor args are null";
  EXPECT_TRUE(rec->assignField("y", Value::integer(9)));
  EXPECT_EQ(rec->at(2)->smallInt(), 9);
  EXPECT_EQ(rec->at(-1)->smallInt(), 9);
  EXPECT_FALSE(rec->assign(3, Value::null()));
}

TEST(RecordKernel, FieldGenTrappedVariable) {
  auto type = RecordType::create("point", {"x", "y"});
  const Value p = Value::record(RecordImpl::create(type, {Value::integer(1), Value::integer(2)}));
  auto g = makeFieldGen(ConstGen::create(p), "x");
  auto r = g->next();
  ASSERT_TRUE(r && r->ref);
  r->ref->set(Value::integer(42));
  EXPECT_EQ(p.record()->field("x")->smallInt(), 42);
  EXPECT_THROW(makeFieldGen(ConstGen::create(p), "nope")->nextValue(), IconError);
}

TEST(RecordKernel, ValueIntegration) {
  auto type = RecordType::create("pair", {"a", "b"});
  const Value p = Value::record(RecordImpl::create(type, {Value::integer(1), Value::integer(2)}));
  EXPECT_EQ(p.typeName(), "pair");
  EXPECT_EQ(p.image(), "record pair(1,2)");
  EXPECT_EQ(p.size(), 2);
  EXPECT_TRUE(p.equals(p));
  const Value q = Value::record(RecordImpl::create(type, {Value::integer(1), Value::integer(2)}));
  EXPECT_FALSE(p.equals(q)) << "records compare by identity";
  EXPECT_EQ(ints(PromoteGen::create(ConstGen::create(p))), (std::vector<std::int64_t>{1, 2}));
}

TEST(RevAssignTest, UndoneOnBacktracking) {
  auto x = CellVar::create(Value::integer(1));
  // (x <- (5|6)) & x > 5 — the first alternative fails the test, is
  // undone, and the second succeeds.
  auto g = ProductGen::create(
      makeRevAssignGen(VarGen::create(x), AltGen::create(ci(5), ci(6))),
      makeBinaryOpGen(">", VarGen::create(x), ci(5)));
  ASSERT_TRUE(g->nextValue().has_value());
  EXPECT_EQ(x->get().smallInt(), 6);
  EXPECT_FALSE(g->nextValue().has_value());
  EXPECT_EQ(x->get().smallInt(), 1) << "fully exhausted: the original value is restored";
}

TEST(RevAssignTest, SurvivingAssignmentPersists) {
  auto x = CellVar::create(Value::integer(1));
  auto g = makeRevAssignGen(VarGen::create(x), ci(9));
  ASSERT_TRUE(g->nextValue().has_value());
  EXPECT_EQ(x->get().smallInt(), 9) << "no backtracking: the assignment stands";
}

// Reversible effects are undone when the node is resumed, never when it
// is restarted: a bounded `<-` is restarted, not resumed, so it stands.
TEST(RevAssignTest, RestartKeepsAssignment) {
  auto x = CellVar::create(Value::integer(1));
  auto g = makeRevAssignGen(VarGen::create(x), makeBinaryOpGen("+", VarGen::create(x), ci(1)));
  ASSERT_TRUE(g->nextValue().has_value());
  g->restart();
  EXPECT_EQ(x->get().smallInt(), 2) << "restart does not undo";
  ASSERT_TRUE(g->nextValue().has_value());
  EXPECT_EQ(x->get().smallInt(), 3) << "the new cycle starts from the kept value";
}

TEST(RevAssignTest, ResumptionRestores) {
  auto x = CellVar::create(Value::integer(1));
  auto g = makeRevAssignGen(VarGen::create(x), ci(9));
  ASSERT_TRUE(g->nextValue().has_value());
  EXPECT_FALSE(g->nextValue().has_value());
  EXPECT_EQ(x->get().smallInt(), 1) << "resumption undoes";
}

TEST(RevSwapTest, RestartKeepsExchange) {
  auto a = CellVar::create(Value::integer(1));
  auto b = CellVar::create(Value::integer(2));
  auto g = makeRevSwapGen(VarGen::create(a), VarGen::create(b));
  ASSERT_TRUE(g->nextValue().has_value());
  g->restart();
  EXPECT_EQ(a->get().smallInt(), 2) << "restart does not undo";
  EXPECT_EQ(b->get().smallInt(), 1);
  ASSERT_TRUE(g->nextValue().has_value());
  EXPECT_EQ(a->get().smallInt(), 1) << "the new cycle exchanges again";
  EXPECT_EQ(b->get().smallInt(), 2);
}

TEST(RevSwapTest, ExchangeAndUndo) {
  auto a = CellVar::create(Value::integer(1));
  auto b = CellVar::create(Value::integer(2));
  auto g = makeRevSwapGen(VarGen::create(a), VarGen::create(b));
  ASSERT_TRUE(g->nextValue().has_value());
  EXPECT_EQ(a->get().smallInt(), 2);
  EXPECT_EQ(b->get().smallInt(), 1);
  EXPECT_FALSE(g->nextValue().has_value()) << "resumption undoes";
  EXPECT_EQ(a->get().smallInt(), 1);
  EXPECT_EQ(b->get().smallInt(), 2);
}

TEST(RevAssignTest, LanguageLevel) {
  interp::Interpreter interp;
  interp.evalOne("x := 1");
  std::vector<std::int64_t> got;
  for (const auto& v : interp.evalAll("((x <- (5|6)) & x > 5 & x) | x")) {
    got.push_back(v.smallInt());
  }
  EXPECT_EQ(got, (std::vector<std::int64_t>{6, 1}));
  // After full exhaustion the binding is restored.
  EXPECT_EQ(interp.evalOne("x")->smallInt(), 1);
  interp.evalOne("a := 10");
  interp.evalOne("b := 20");
  EXPECT_EQ(interp.evalAll("(a <-> b) & a == 20 & b == 10").size(), 1u);
}

}  // namespace
}  // namespace congen
