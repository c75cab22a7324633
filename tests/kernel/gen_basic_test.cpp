// gen_basic_test.cpp — leaf generators and the restart-after-failure
// protocol that the whole kernel builds on, including lazy restart.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "runtime/error.hpp"
#include "runtime/governor.hpp"
#include "runtime/var.hpp"

namespace congen {
namespace {

using test::ci;
using test::ints;

TEST(ConstGenTest, SingletonPerCycle) {
  auto g = ci(42);
  EXPECT_EQ(g->nextValue()->smallInt(), 42);
  EXPECT_FALSE(g->nextValue().has_value()) << "exhausted after one result";
  // The paper: "after failure, the iterator is then restarted on the
  // following next()".
  EXPECT_EQ(g->nextValue()->smallInt(), 42) << "auto-restart after failure";
}

TEST(ConstGenTest, ExplicitRestartMidCycle) {
  auto g = ci(7);
  ASSERT_TRUE(g->nextValue().has_value());
  g->restart();
  EXPECT_EQ(g->nextValue()->smallInt(), 7);
}

TEST(VarGenTest, YieldsAssignableReference) {
  auto cell = CellVar::create(Value::integer(10));
  auto g = VarGen::create(cell);
  auto r = g->next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value.smallInt(), 10);
  ASSERT_NE(r->ref, nullptr) << "variables carry their location";
  r->ref->set(Value::integer(99));
  EXPECT_EQ(cell->get().smallInt(), 99);
}

TEST(VarGenTest, ReadsFreshValueEachCycle) {
  auto cell = CellVar::create(Value::integer(1));
  auto g = VarGen::create(cell);
  EXPECT_EQ(g->nextValue()->smallInt(), 1);
  EXPECT_FALSE(g->nextValue().has_value());
  cell->set(Value::integer(2));
  EXPECT_EQ(g->nextValue()->smallInt(), 2) << "restarted read sees the new value";
}

TEST(NullFailGen, Protocol) {
  auto n = NullGen::create();
  EXPECT_TRUE(n->nextValue()->isNull());
  EXPECT_FALSE(n->nextValue().has_value());
  auto f = FailGen::create();
  EXPECT_FALSE(f->nextValue().has_value());
  EXPECT_FALSE(f->nextValue().has_value());
}

TEST(RangeGenTest, AscendingDescending) {
  EXPECT_EQ(ints(RangeGen::create(Value::integer(1), Value::integer(5), Value::integer(1))),
            (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(ints(RangeGen::create(Value::integer(10), Value::integer(1), Value::integer(-3))),
            (std::vector<std::int64_t>{10, 7, 4, 1}));
  EXPECT_EQ(ints(RangeGen::create(Value::integer(3), Value::integer(1), Value::integer(1))),
            (std::vector<std::int64_t>{})) << "empty ascending range";
}

TEST(RangeGenTest, ZeroStepIsError) {
  EXPECT_THROW(RangeGen::create(Value::integer(1), Value::integer(5), Value::integer(0)),
               IconError);
}

TEST(RangeGenTest, RealAndBigRanges) {
  auto g = RangeGen::create(Value::real(0.5), Value::real(2.0), Value::real(0.5));
  std::vector<double> out;
  while (auto v = g->nextValue()) out.push_back(v->real());
  EXPECT_EQ(out, (std::vector<double>{0.5, 1.0, 1.5, 2.0}));

  const BigInt big = BigInt{2}.pow(80);
  auto bg = RangeGen::create(Value::integer(big), Value::integer(big + BigInt{2}),
                             Value::integer(1));
  EXPECT_EQ(bg->collect().size(), 3u) << "BigInt bounds iterate";
}

TEST(RangeGenTest, RestartsAfterExhaustion) {
  auto g = RangeGen::create(Value::integer(1), Value::integer(2), Value::integer(1));
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{1, 2})) << "second full cycle";
}

TEST(ValuesGenTest, IterationAndRestart) {
  auto g = test::vals({3, 1, 4});
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{3, 1, 4}));
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{3, 1, 4}));
}

TEST(CallbackGenTest, BridgesHostPullers) {
  int created = 0;
  auto g = CallbackGen::create([&created]() -> CallbackGen::Puller {
    ++created;
    int n = 0;
    return [n]() mutable -> std::optional<Value> {
      if (n >= 3) return std::nullopt;
      return Value::integer(++n);
    };
  });
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(created, 1);
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{1, 2, 3})) << "restart re-arms the puller";
  EXPECT_EQ(created, 2);
}

TEST(GenHelpers, LastAndCollect) {
  EXPECT_EQ(test::range(1, 4)->last()->smallInt(), 4);
  EXPECT_FALSE(FailGen::create()->last().has_value());
  EXPECT_EQ(test::range(1, 3)->collect().size(), 3u);
}

// --- lazy restart ----------------------------------------------------

struct ProbeCounts {
  int restarts = 0;  // doRestart() runs
  int nexts = 0;     // doNext() runs
};

/// Yields 1..n per cycle and counts its protocol calls.
class ProbeGen final : public Gen {
 public:
  ProbeGen(std::int64_t n, ProbeCounts& counts) : n_(n), counts_(counts) {}

 protected:
  bool doNext(Result& out) override {
    ++counts_.nexts;
    if (i_ >= n_) return false;
    out.set(Value::integer(++i_));
    return true;
  }
  void doRestart() override {
    ++counts_.restarts;
    i_ = 0;
  }

 private:
  std::int64_t n_;
  ProbeCounts& counts_;
  std::int64_t i_ = 0;
};

GenPtr probe(std::int64_t n, ProbeCounts& counts) {
  return std::make_shared<ProbeGen>(n, counts);
}

int totalRestarts(const std::vector<ProbeCounts>& counts) {
  int sum = 0;
  for (const auto& c : counts) sum += c.restarts;
  return sum;
}

TEST(LazyRestart, UnresumedSubtreeRunsNoReset) {
  std::vector<ProbeCounts> c(4);
  // Three levels: a product of two products of probes.
  auto tree = ProductGen::create(ProductGen::create(probe(2, c[0]), probe(2, c[1])),
                                 ProductGen::create(probe(2, c[2]), probe(2, c[3])));
  ASSERT_TRUE(tree->next().has_value());
  ASSERT_TRUE(tree->next().has_value());
  const int before = totalRestarts(c);
  tree->restart();
  EXPECT_EQ(totalRestarts(c), before) << "restart only marks the root";
  tree.reset();
  EXPECT_EQ(totalRestarts(c), before) << "a marked subtree destroyed unresumed costs nothing";
}

TEST(LazyRestart, RepeatedRestartsResetOnce) {
  ProbeCounts c;
  auto g = probe(3, c);
  ASSERT_TRUE(g->next().has_value());
  g->restart();
  g->restart();
  EXPECT_EQ(c.restarts, 0);
  EXPECT_EQ(g->nextValue()->smallInt(), 1);
  EXPECT_EQ(c.restarts, 1) << "two restarts before one next() reset once";

  std::vector<ProbeCounts> cs(2);
  auto p = ProductGen::create(probe(2, cs[0]), probe(2, cs[1]));
  ASSERT_TRUE(p->next().has_value());
  const int before = totalRestarts(cs);
  p->restart();
  p->restart();
  ASSERT_TRUE(p->next().has_value());
  EXPECT_EQ(totalRestarts(cs), before + 2) << "each child resets once on the resumption";
}

TEST(LazyRestart, RestartMidCycleYieldsTheFirstResultAgain) {
  std::vector<ProbeCounts> c(3);
  auto tree = makeBinaryOpGen(
      "+", ProductGen::create(probe(1, c[0]), probe(3, c[1])), probe(2, c[2]));
  const std::vector<std::int64_t> full{2, 3, 3, 4, 4, 5};
  EXPECT_EQ(ints(tree), full);
  ASSERT_EQ(tree->nextValue()->smallInt(), 2);
  ASSERT_EQ(tree->nextValue()->smallInt(), 3);
  ASSERT_EQ(tree->nextValue()->smallInt(), 3);
  tree->restart();
  EXPECT_EQ(ints(tree), full) << "restart mid-cycle starts from the first result";
}

TEST(LazyRestart, ReleaseResetsTheWholeSubtreeNow) {
  std::vector<ProbeCounts> c(3);
  // c[1] is the alternation's second branch, never resumed before release.
  auto tree = ProductGen::create(AltGen::create(probe(1, c[0]), probe(1, c[1])), probe(2, c[2]));
  ASSERT_EQ(tree->nextValue()->smallInt(), 1);
  std::vector<int> before;
  for (const auto& k : c) before.push_back(k.restarts);
  tree->release();
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i].restarts, before[i] + 1) << "probe " << i << " reset once, resumed or not";
  }
  EXPECT_EQ(ints(tree), (std::vector<std::int64_t>{1, 2, 1, 2})) << "released: starts over";
}

TEST(LazyRestart, FuelIsOneStepPerResumption) {
  governor::Limits limits;
  limits.maxFuel = 1'000'000;
  auto gov = governor::ResourceGovernor::create(limits);
  std::vector<ProbeCounts> c(2);
  auto g = ProductGen::create(probe(2, c[0]), probe(3, c[1]));
  auto drain = [&] {
    governor::ScopedGovernor scope(gov);
    return ints(g).size();
  };
  // 7 root resumptions (6 results + failure), 3 left, 2 x 4 right.
  EXPECT_EQ(drain(), 6u);
  EXPECT_EQ(gov->usage().fuelSpent, 18u);
  {
    governor::ScopedGovernor scope(gov);
    ASSERT_TRUE(g->next().has_value());  // 3 steps: root, left, right
    g->restart();
    g->restart();
  }
  EXPECT_EQ(gov->usage().fuelSpent, 21u) << "restart charges no fuel";
  EXPECT_EQ(drain(), 6u);
  EXPECT_EQ(gov->usage().fuelSpent, 39u) << "a restarted drive costs what a fresh one does";
}

}  // namespace
}  // namespace congen
