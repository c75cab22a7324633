#include "kernel/ops.hpp"

#include <stdexcept>

#include "kernel/basic.hpp"
#include "kernel/error_env.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "runtime/proc.hpp"
#include "runtime/record.hpp"
#include "runtime/var.hpp"

namespace congen {

// ---------------------------------------------------------------------
// Shared per-tuple semantics (see ops.hpp: one implementation for the
// tree kernel and the bytecode VM)
// ---------------------------------------------------------------------

std::optional<BinKind> binKindOf(std::string_view op) {
  if (op == "+") return BinKind::Add;
  if (op == "-") return BinKind::Sub;
  if (op == "*") return BinKind::Mul;
  if (op == "/") return BinKind::Div;
  if (op == "%") return BinKind::Mod;
  if (op == "^") return BinKind::Pow;
  if (op == "||") return BinKind::Concat;
  if (op == "|||") return BinKind::ListConcat;
  if (op == "<") return BinKind::NumLT;
  if (op == "<=") return BinKind::NumLE;
  if (op == ">") return BinKind::NumGT;
  if (op == ">=") return BinKind::NumGE;
  if (op == "=") return BinKind::NumEQ;
  if (op == "~=") return BinKind::NumNE;
  if (op == "==") return BinKind::ValEQ;
  if (op == "~==") return BinKind::ValNE;
  if (op == "!=") return BinKind::ValNE;
  if (op == "===") return BinKind::ValEQ;
  if (op == "~===") return BinKind::ValNE;
  return std::nullopt;
}

std::optional<UnKind> unKindOf(std::string_view op) {
  if (op == "-") return UnKind::Negate;
  if (op == "+") return UnKind::Plus;
  if (op == "*") return UnKind::Size;
  if (op == ".") return UnKind::Deref;
  if (op == "\\") return UnKind::NonNull;
  if (op == "/") return UnKind::IfNull;
  return std::nullopt;
}

const char* binKindName(BinKind k) {
  switch (k) {
    case BinKind::Add: return "add";
    case BinKind::Sub: return "sub";
    case BinKind::Mul: return "mul";
    case BinKind::Div: return "div";
    case BinKind::Mod: return "mod";
    case BinKind::Pow: return "pow";
    case BinKind::Concat: return "concat";
    case BinKind::ListConcat: return "lconcat";
    case BinKind::NumLT: return "numlt";
    case BinKind::NumLE: return "numle";
    case BinKind::NumGT: return "numgt";
    case BinKind::NumGE: return "numge";
    case BinKind::NumEQ: return "numeq";
    case BinKind::NumNE: return "numne";
    case BinKind::ValEQ: return "valeq";
    case BinKind::ValNE: return "valne";
  }
  return "?";
}

const char* unKindName(UnKind k) {
  switch (k) {
    case UnKind::Negate: return "neg";
    case UnKind::Plus: return "plus";
    case UnKind::Size: return "size";
    case UnKind::Deref: return "deref";
    case UnKind::NonNull: return "nonnull";
    case UnKind::IfNull: return "ifnull";
  }
  return "?";
}

std::optional<Value> applyBinary(BinKind k, const Value& a, const Value& b) {
  switch (k) {
    case BinKind::Add: return ops::add(a, b);
    case BinKind::Sub: return ops::sub(a, b);
    case BinKind::Mul: return ops::mul(a, b);
    case BinKind::Div: return ops::div(a, b);
    case BinKind::Mod: return ops::mod(a, b);
    case BinKind::Pow: return ops::power(a, b);
    case BinKind::Concat: return ops::concat(a, b);
    case BinKind::ListConcat: return ops::listConcat(a, b);
    case BinKind::NumLT: return ops::numLT(a, b);
    case BinKind::NumLE: return ops::numLE(a, b);
    case BinKind::NumGT: return ops::numGT(a, b);
    case BinKind::NumGE: return ops::numGE(a, b);
    case BinKind::NumEQ: return ops::numEQ(a, b);
    case BinKind::NumNE: return ops::numNE(a, b);
    case BinKind::ValEQ: return ops::valEQ(a, b);
    case BinKind::ValNE: return ops::valNE(a, b);
  }
  return std::nullopt;
}

std::optional<Result> applyUnary(UnKind k, Result& r) {
  switch (k) {
    case UnKind::Negate: return Result{ops::negate(r.value)};
    case UnKind::Plus: {
      auto n = r.value.toNumeric();
      if (!n) throw errNumericExpected("operand of unary +: " + r.value.image());
      return Result{std::move(*n)};
    }
    case UnKind::Size: return Result{Value::integer(r.value.size())};
    case UnKind::Deref: return Result{r.value};
    case UnKind::NonNull:
      if (r.value.isNull()) return std::nullopt;
      return r;
    case UnKind::IfNull:
      if (!r.value.isNull()) return std::nullopt;
      return r;
  }
  return std::nullopt;
}

std::optional<Result> indexTuple(Result& c, Result& i) {
  const Value& v = c.value;
  if (v.isList()) {
    const std::int64_t idx = i.value.requireInt64("list subscript");
    auto elem = v.list()->at(idx);
    if (!elem) return std::nullopt;  // out of range: fail, don't error
    return Result{std::move(*elem), ListElemVar::create(v.list(), idx)};
  }
  if (v.isTable()) {
    return Result{v.table()->lookup(i.value), TableElemVar::create(v.table(), i.value)};
  }
  if (v.isRecord()) {
    const std::int64_t idx = i.value.requireInt64("record subscript");
    auto elem = v.record()->at(idx);
    if (!elem) return std::nullopt;
    return Result{std::move(*elem), RecordElemVar::create(v.record(), idx)};
  }
  if (v.isString()) {
    const std::int64_t idx = i.value.requireInt64("string subscript");
    const auto& s = v.str();
    const std::int64_t n = static_cast<std::int64_t>(s.size());
    std::int64_t off = -1;
    if (idx >= 1 && idx <= n) off = idx - 1;
    else if (idx < 0 && -idx <= n) off = n + idx;
    if (off < 0) return std::nullopt;
    return Result{Value::string(std::string(1, s[static_cast<std::size_t>(off)]))};
  }
  throw errInvalidValue("subscript applied to " + v.typeName());
}

std::optional<Result> fieldTuple(Result& o, std::string_view name) {
  if (o.value.isRecord()) {
    auto v = o.value.record()->field(name);
    if (!v) {
      throw IconError(207, "record " + o.value.typeName() + " has no field " + std::string(name));
    }
    return Result{std::move(*v), RecordFieldVar::create(o.value.record(), std::string(name))};
  }
  if (o.value.isTable()) {
    const Value key = Value::string(name);
    return Result{o.value.table()->lookup(key), TableElemVar::create(o.value.table(), key)};
  }
  throw errInvalidValue("field ." + std::string(name) + " applied to " + o.value.typeName());
}

std::optional<Value> sliceTuple(const Value& v, const Value& from, const Value& to) {
  const std::int64_t n = v.isString() ? static_cast<std::int64_t>(v.str().size())
                         : v.isList() ? v.list()->size()
                                      : throw errInvalidValue("slice of " + v.typeName());
  // Icon positions: 1..n+1 from the left, 0 and negatives from the right.
  auto resolve = [n](std::int64_t p) -> std::optional<std::int64_t> {
    if (p <= 0) p = n + 1 + p;
    if (p < 1 || p > n + 1) return std::nullopt;
    return p;
  };
  auto i = resolve(from.requireInt64("slice from"));
  auto j = resolve(to.requireInt64("slice to"));
  if (!i || !j) return std::nullopt;
  if (*i > *j) std::swap(*i, *j);
  if (v.isString()) {
    return Value::string(
        v.str().substr(static_cast<std::size_t>(*i - 1), static_cast<std::size_t>(*j - *i)));
  }
  auto out = ListImpl::create();
  for (std::int64_t k = *i; k < *j; ++k) out->put(*v.list()->at(k));
  return Value::list(std::move(out));
}

std::optional<Result> assignTuple(Result& l, Result& r) {
  if (!l.ref) throw errInvalidValue("assignment to a non-variable");
  l.ref->set(r.value);
  return Result{r.value, l.ref};
}

std::optional<Result> swapTuple(Result& l, Result& r) {
  if (!l.ref || !r.ref) throw errInvalidValue("swap of a non-variable");
  const Value lv = l.ref->get();
  const Value rv = r.ref->get();
  l.ref->set(rv);
  r.ref->set(lv);
  return Result{rv, l.ref};
}

std::optional<Result> augAssignTuple(BinKind k, Result& l, Result& r) {
  if (!l.ref) throw errInvalidValue("augmented assignment to a non-variable");
  auto v = applyBinary(k, l.ref->get(), r.value);
  if (!v) return std::nullopt;  // comparison-augmented ops can fail
  l.ref->set(*v);
  return Result{std::move(*v), l.ref};
}

// ---------------------------------------------------------------------
// UnOpGen / BinOpGen
// ---------------------------------------------------------------------
//
// The operator nodes are where run-time errors become catchable: with
// &error credit (see error_env.hpp), an IconError raised while
// evaluating the node converts to plain failure of the node. The
// handlers live here — not in every builtin — because these three node
// kinds are the translation-level notion of "the expression in which
// the error occurred", and both the interpreter and emitted C++ build
// their trees from them. Returning false leaves partial iteration
// state behind, which is safe: a failed node is restarted by Gen::next
// before its next cycle.

bool UnOpGen::doNext(Result& out) {
  try {
    while (true) {
      if (!operand_->next(out)) return false;
      if (out.isControl()) return true;
      auto r = fn_(out);
      if (r) {
        out = std::move(*r);
        return true;
      }
      // else: filtered — continue the search
    }
  } catch (const IconError& e) {
    if (!ErrorEnv::convertToFailure(e)) throw;
    return false;
  }
}

bool BinOpGen::doNext(Result& out) {
  try {
    while (true) {
      if (!leftActive_) {
        if (!left_->next(out)) return false;
        if (out.isControl()) return true;
        leftResult_ = std::move(out);
        leftActive_ = true;
        right_->restart();
      }
      if (!right_->next(out)) {
        leftActive_ = false;  // backtrack into the left operand
        continue;
      }
      if (out.isControl()) return true;
      auto r = fn_(leftResult_, out);
      if (r) {
        out = std::move(*r);
        return true;
      }
    }
  } catch (const IconError& e) {
    if (!ErrorEnv::convertToFailure(e)) throw;
    return false;
  }
}

void BinOpGen::doRestart() {
  leftActive_ = false;
  left_->restart();  // right_ is restarted per left result
}

// ---------------------------------------------------------------------
// DelegateGen
// ---------------------------------------------------------------------

bool DelegateGen::advanceTuple() {
  const std::size_t n = operands_.size();
  if (n == 0) {
    if (exhaustedNullary_) return false;
    exhaustedNullary_ = true;
    return true;
  }
  if (bound_ == n) bound_ = n - 1;  // inner exhausted: re-advance the deepest operand
  while (true) {
    if (operands_[bound_]->next(current_[bound_])) {
      ++bound_;
      if (bound_ == n) return true;
      operands_[bound_]->restart();
    } else {
      if (bound_ == 0) return false;
      --bound_;
    }
  }
}

bool DelegateGen::doNext(Result& out) {
  try {
    while (true) {
      if (inner_) {
        if (inner_->next(out)) return true;
        inner_.reset();
      }
      if (!advanceTuple()) return false;
      inner_ = factory_(current_);
      if (!inner_) return false;
    }
  } catch (const IconError& e) {
    if (!ErrorEnv::convertToFailure(e)) throw;
    return false;
  }
}

void DelegateGen::doRestart() {
  inner_.reset();
  // Drop the operand tuple too, not just the inner generator: for an
  // invocation current_[0] is the procedure value, which a parked body
  // (recursive calls) must not pin.
  for (auto& r : current_) {
    r.value = Value::null();
    r.ref = nullptr;
  }
  bound_ = 0;
  exhaustedNullary_ = false;
  // advanceTuple restarts each later operand as the product reaches it.
  if (!operands_.empty()) operands_[0]->restart();
}

// ---------------------------------------------------------------------
// Invocation / to-by / subscripts / fields
// ---------------------------------------------------------------------

GenPtr makeInvokeGen(GenPtr callee, std::vector<GenPtr> args) {
  std::vector<GenPtr> operands;
  operands.reserve(args.size() + 1);
  operands.push_back(std::move(callee));
  for (auto& a : args) operands.push_back(std::move(a));
  return DelegateGen::create(std::move(operands), [](const std::vector<Result>& tuple) -> GenPtr {
    const Value& f = tuple[0].value;
    if (!f.isProc()) throw errCallableExpected(f.image());
    std::vector<Value> argValues;
    argValues.reserve(tuple.size() - 1);
    for (std::size_t i = 1; i < tuple.size(); ++i) argValues.push_back(tuple[i].value);
    return f.proc()->invoke(std::move(argValues));
  });
}

GenPtr makeToByGen(GenPtr from, GenPtr to, GenPtr by) {
  std::vector<GenPtr> operands;
  operands.push_back(std::move(from));
  operands.push_back(std::move(to));
  operands.push_back(by ? std::move(by) : ConstGen::create(Value::integer(1)));
  return DelegateGen::create(std::move(operands), [](const std::vector<Result>& tuple) {
    return RangeGen::create(tuple[0].value, tuple[1].value, tuple[2].value);
  });
}

GenPtr makeIndexGen(GenPtr collection, GenPtr index) {
  return BinOpGen::create(std::move(collection), std::move(index), &indexTuple);
}

GenPtr makeFieldGen(GenPtr object, std::string name) {
  return UnOpGen::create(std::move(object),
                         [name = std::move(name)](Result& o) { return fieldTuple(o, name); });
}

GenPtr makeSliceGen(GenPtr collection, GenPtr from, GenPtr to) {
  std::vector<GenPtr> operands;
  operands.push_back(std::move(collection));
  operands.push_back(std::move(from));
  operands.push_back(std::move(to));
  return DelegateGen::create(std::move(operands), [](const std::vector<Result>& t) -> GenPtr {
    auto v = sliceTuple(t[0].value, t[1].value, t[2].value);
    if (!v) return FailGen::create();
    return ConstGen::create(std::move(*v));
  });
}

GenPtr makeAssignGen(GenPtr lhs, GenPtr rhs) {
  return BinOpGen::create(std::move(lhs), std::move(rhs), &assignTuple);
}

GenPtr makeSwapGen(GenPtr lhs, GenPtr rhs) {
  return BinOpGen::create(std::move(lhs), std::move(rhs), &swapTuple);
}

GenPtr makeListLitGen(std::vector<GenPtr> elements) {
  return DelegateGen::create(std::move(elements), [](const std::vector<Result>& tuple) {
    auto list = ListImpl::create();
    for (const auto& r : tuple) list->put(r.value);
    return ConstGen::create(Value::list(std::move(list)));
  });
}

namespace {

/// lhs <- rhs. For each rhs alternative: save the old value, assign,
/// yield; when resumed, restore and try the next alternative; when rhs
/// is exhausted, leave the original value in place and backtrack into
/// the lhs. Only resumption undoes: a restart leaves the value assigned.
class RevAssignGen final : public Gen {
 public:
  RevAssignGen(GenPtr lhs, GenPtr rhs) : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

 protected:
  bool doNext(Result& out) override {
    while (true) {
      if (!active_) {
        if (!lhs_->next(out)) return false;
        if (out.isControl()) return true;
        if (!out.ref) throw errInvalidValue("reversible assignment to a non-variable");
        target_ = out.ref;
        saved_ = target_->get();
        active_ = true;
        rhs_->restart();
      }
      if (assigned_) {  // resumed: undo the previous alternative
        target_->set(saved_);
        assigned_ = false;
      }
      if (!rhs_->next(out)) {
        active_ = false;  // rhs exhausted (value already restored)
        continue;
      }
      if (out.isControl()) return true;
      target_->set(out.value);
      assigned_ = true;
      out.ref = target_;
      return true;
    }
  }
  void doRestart() override {  // rhs_ is restarted per lhs result
    assigned_ = false;
    active_ = false;
    lhs_->restart();
  }
  void forEachChild(Visit fn) override { visit(fn, lhs_, rhs_); }

 private:
  GenPtr lhs_, rhs_;
  VarPtr target_;
  Value saved_;
  bool active_ = false;
  bool assigned_ = false;
};

/// lhs <-> rhs: exchange once per cycle, restore when resumed (only then).
class RevSwapGen final : public Gen {
 public:
  RevSwapGen(GenPtr lhs, GenPtr rhs) : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

 protected:
  bool doNext(Result& out) override {
    if (swapped_) {  // resumed: undo and fail
      left_->set(savedLeft_);
      right_->set(savedRight_);
      swapped_ = false;
      return false;
    }
    lhs_->restart();
    rhs_->restart();
    Result rl, rr;
    if (!lhs_->next(rl)) return false;
    if (!rhs_->next(rr)) return false;
    if (!rl.ref || !rr.ref) throw errInvalidValue("reversible swap of a non-variable");
    left_ = rl.ref;
    right_ = rr.ref;
    savedLeft_ = left_->get();
    savedRight_ = right_->get();
    left_->set(savedRight_);
    right_->set(savedLeft_);
    swapped_ = true;
    out.set(savedRight_, left_);
    return true;
  }
  void doRestart() override { swapped_ = false; }  // doNext restarts both operands
  void forEachChild(Visit fn) override { visit(fn, lhs_, rhs_); }

 private:
  GenPtr lhs_, rhs_;
  VarPtr left_, right_;
  Value savedLeft_, savedRight_;
  bool swapped_ = false;
};

}  // namespace

GenPtr makeRevAssignGen(GenPtr lhs, GenPtr rhs) {
  return std::make_shared<RevAssignGen>(std::move(lhs), std::move(rhs));
}

GenPtr makeRevSwapGen(GenPtr lhs, GenPtr rhs) {
  return std::make_shared<RevSwapGen>(std::move(lhs), std::move(rhs));
}

GenPtr makeAugAssignGen(std::string_view op, GenPtr lhs, GenPtr rhs) {
  const auto k = binKindOf(op);
  if (!k) throw std::invalid_argument("unknown binary operator: " + std::string(op));
  return BinOpGen::create(std::move(lhs), std::move(rhs),
                          [k = *k](Result& l, Result& r) { return augAssignTuple(k, l, r); });
}

GenPtr makeBinaryOpGen(std::string_view op, GenPtr left, GenPtr right) {
  const auto k = binKindOf(op);
  if (!k) throw std::invalid_argument("unknown binary operator: " + std::string(op));
  return BinOpGen::create(std::move(left), std::move(right),
                          [k = *k](Result& l, Result& r) -> std::optional<Result> {
    auto v = applyBinary(k, l.value, r.value);
    if (!v) return std::nullopt;
    return Result{std::move(*v)};
  });
}

GenPtr makeUnaryOpGen(std::string_view op, GenPtr operand) {
  const auto k = unKindOf(op);
  if (!k) throw std::invalid_argument("unknown unary operator: " + std::string(op));
  return UnOpGen::create(std::move(operand), [k = *k](Result& r) { return applyUnary(k, r); });
}

}  // namespace congen
