#include "kernel/compose.hpp"

#include "kernel/basic.hpp"
#include "kernel/coexpression.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "runtime/record.hpp"

namespace congen {

// ---------------------------------------------------------------------
// SeqGen
// ---------------------------------------------------------------------

bool SeqGen::doNext(Result& out) {
  if (terminated_) return false;
  while (index_ < children_.size()) {
    const bool last = index_ + 1 == children_.size();
    const bool delegating = mode_ == Mode::Expression && last;
    if (!children_[index_]->next(out)) {
      if (delegating) return false;  // last term's failure is the sequence's
      ++index_;                      // a bounded term failed: move on
      continue;
    }
    if (out.flags & Result::kSuspend) return true;  // propagate, stay on this term
    if (out.flags & (Result::kReturn | Result::kFailBody)) {
      terminated_ = true;
      return true;
    }
    if (delegating) return true;  // last term generates the sequence's results
    ++index_;                     // bounded term produced its one result
  }
  return false;  // body mode: fell off the end — fail
}

void SeqGen::doRestart() {
  index_ = 0;
  terminated_ = false;
  for (auto& c : children_) c->restart();
}

// ---------------------------------------------------------------------
// ProductGen
// ---------------------------------------------------------------------

bool ProductGen::doNext(Result& out) {
  while (true) {
    if (!leftActive_) {
      if (!left_->next(out)) return false;
      if (out.isControl()) return true;  // conservatively propagate
      leftActive_ = true;
      right_->restart();
    }
    if (right_->next(out)) return true;
    leftActive_ = false;  // right exhausted: backtrack into the left
  }
}

void ProductGen::doRestart() {
  leftActive_ = false;
  left_->restart();  // right_ is restarted per left result
}

// ---------------------------------------------------------------------
// AltGen
// ---------------------------------------------------------------------

bool AltGen::doNext(Result& out) {
  while (index_ < children_.size()) {
    if (children_[index_]->next(out)) return true;
    ++index_;
  }
  return false;
}

void AltGen::doRestart() {
  index_ = 0;
  for (auto& c : children_) c->restart();
}

// ---------------------------------------------------------------------
// InGen
// ---------------------------------------------------------------------

bool InGen::doNext(Result& out) {
  if (!source_->next(out)) return false;
  if (out.isControl()) return true;
  var_->set(out.value);
  out.ref = var_;
  return true;
}

void InGen::doRestart() { source_->restart(); }

// ---------------------------------------------------------------------
// LimitGen
// ---------------------------------------------------------------------

GenPtr LimitGen::create(GenPtr expr, std::int64_t n) {
  return create(std::move(expr), ConstGen::create(Value::integer(n)));
}

bool LimitGen::doNext(Result& out) {
  if (!boundTaken_) {
    bound_->restart();
    auto n = bound_->nextValue();
    if (!n) return false;  // the bound expression failed
    remaining_ = n->requireInt64("limit bound");
    boundTaken_ = true;
  }
  if (remaining_ <= 0) return false;
  if (!expr_->next(out)) return false;
  if (!out.isControl()) --remaining_;
  return true;
}

void LimitGen::doRestart() {
  boundTaken_ = false;
  remaining_ = 0;
  expr_->restart();
}

// ---------------------------------------------------------------------
// NotGen
// ---------------------------------------------------------------------

bool NotGen::doNext(Result& out) {
  if (done_) return false;
  done_ = true;
  expr_->restart();
  if (expr_->next(out)) return false;
  out.set(Value::null());
  return true;
}

void NotGen::doRestart() { done_ = false; }

// ---------------------------------------------------------------------
// RepeatAltGen
// ---------------------------------------------------------------------

bool RepeatAltGen::doNext(Result& out) {
  while (true) {
    if (expr_->next(out)) {  // auto-restarts after each pass's failure
      producedThisPass_ = true;
      return true;
    }
    if (!producedThisPass_) return false;  // sterile pass: stop
    producedThisPass_ = false;
  }
}

void RepeatAltGen::doRestart() {
  producedThisPass_ = false;
  expr_->restart();
}

// ---------------------------------------------------------------------
// PromoteGen
// ---------------------------------------------------------------------

namespace {

/// !L for a list: walks by index so concurrent growth is observed, and
/// yields trapped variables (Icon: list elements are assignable).
class ListElementsGen final : public Gen {
 public:
  explicit ListElementsGen(ListPtr list) : list_(std::move(list)) {}

 protected:
  bool doNext(Result& out) override {
    if (index_ >= list_->size()) return false;
    ++index_;
    out.set(list_->at(index_).value_or(Value::null()), ListElemVar::create(list_, index_));
    return true;
  }
  void doRestart() override { index_ = 0; }

 private:
  ListPtr list_;
  std::int64_t index_ = 0;  // Icon 1-based position of the last yielded element
};

/// !s for a string: one-character strings.
class StringElementsGen final : public Gen {
 public:
  explicit StringElementsGen(std::string s) : s_(std::move(s)) {}

 protected:
  bool doNext(Result& out) override {
    if (index_ >= s_.size()) return false;
    out.set(Value::string(std::string(1, s_[index_++])));
    return true;
  }
  void doRestart() override { index_ = 0; }

 private:
  std::string s_;
  std::size_t index_ = 0;
};

/// !t for a table: element values as trapped variables, in sorted key
/// order for determinism.
class TableElementsGen final : public Gen {
 public:
  explicit TableElementsGen(TablePtr table) : table_(std::move(table)), keys_(table_->sortedKeys()) {}

 protected:
  bool doNext(Result& out) override {
    if (index_ >= keys_.size()) return false;
    const Value& key = keys_[index_++];
    out.set(table_->lookup(key), TableElemVar::create(table_, key));
    return true;
  }
  void doRestart() override {
    keys_ = table_->sortedKeys();
    index_ = 0;
  }

 private:
  TablePtr table_;
  std::vector<Value> keys_;
  std::size_t index_ = 0;
};

/// !c for a co-expression or pipe: repeated activation until failure
/// (Section III.B: "the ! operator lifts lists as well as co-expressions
/// to iterators"). Restart does not refresh the co-expression; it simply
/// continues, matching pipe consumption semantics.
class CoActivationGen final : public Gen {
 public:
  explicit CoActivationGen(CoExprPtr c) : c_(std::move(c)) {}

 protected:
  bool doNext(Result& out) override {
    auto v = c_->activate();
    if (!v) return false;
    out.set(std::move(*v));
    return true;
  }
  void doRestart() override {}

 private:
  CoExprPtr c_;
};

}  // namespace

GenPtr PromoteGen::makeElementGen(const Value& v) {
  switch (v.tag()) {
    case TypeTag::List: return std::make_shared<ListElementsGen>(v.list());
    case TypeTag::String: return std::make_shared<StringElementsGen>(std::string(v.str()));
    case TypeTag::Table: return std::make_shared<TableElementsGen>(v.table());
    case TypeTag::Set: return ValuesGen::create(v.set()->sortedMembers());
    case TypeTag::Record: return ValuesGen::create(v.record()->values());
    case TypeTag::CoExpr: return std::make_shared<CoActivationGen>(v.coExpr());
    default: throw errInvalidValue("!x applied to " + v.typeName());
  }
}

bool PromoteGen::doNext(Result& out) {
  while (true) {
    if (inner_) {
      if (inner_->next(out)) return true;
      inner_.reset();
    }
    if (!operand_->next(out)) return false;
    if (out.isControl()) return true;
    inner_ = makeElementGen(out.value);
  }
}

void PromoteGen::doRestart() {
  inner_.reset();
  operand_->restart();
}

// ---------------------------------------------------------------------
// ActivateGen / RefreshGen (declared in coexpression.hpp)
// ---------------------------------------------------------------------

bool ActivateGen::doNext(Result& out) {
  while (true) {
    if (!operand_->next(out)) return false;
    if (out.isControl()) return true;
    if (!out.value.isCoExpr()) throw errCoExprExpected("operand of @: " + out.value.image());
    auto v = out.value.coExpr()->activate();
    if (v) {
      out.set(std::move(*v));
      return true;
    }
    // This co-expression is exhausted: backtrack into the operand.
  }
}

bool RefreshGen::doNext(Result& out) {
  if (!operand_->next(out)) return false;
  if (out.isControl()) return true;
  if (!out.value.isCoExpr()) throw errCoExprExpected("operand of ^: " + out.value.image());
  out.set(Value::coexpr(out.value.coExpr()->refreshed()));
  return true;
}

}  // namespace congen
