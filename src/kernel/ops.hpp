// ops.hpp — operations over generator operands.
//
// Goal-directed evaluation composes nested generators "by mapping
// functions or operations over the cross-product of their arguments, and
// then filtering to find successful results" (Section II). These nodes
// implement exactly that: operand generators are iterated in product
// order; the operation is applied to each tuple; an operation that fails
// (e.g. a comparison) resumes the search rather than producing false.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/gen.hpp"

namespace congen {

// ---------------------------------------------------------------------
// Per-tuple operator semantics, shared between the tree kernel and the
// bytecode VM (interp/vm). The Gen factories below wrap these; the VM
// calls them directly from its dispatch loop. One implementation, two
// backends — the differential harness checks the composition, not two
// copies of the arithmetic.
// ---------------------------------------------------------------------

/// Value-level binary operators ("+", "<", "==", ...).
enum class BinKind : std::uint8_t {
  Add, Sub, Mul, Div, Mod, Pow, Concat, ListConcat,
  NumLT, NumLE, NumGT, NumGE, NumEQ, NumNE, ValEQ, ValNE,
};

/// Value-level unary operators.
enum class UnKind : std::uint8_t {
  Negate,   // -e
  Plus,     // +e (numeric coercion)
  Size,     // *e
  Deref,    // .e (strip the variable reference)
  NonNull,  // \e
  IfNull,   // /e
};

/// Operator spelling → kind (exact table the tree compiler uses; "!="
/// and "===" family alias onto value equality). nullopt: unknown.
std::optional<BinKind> binKindOf(std::string_view op);
std::optional<UnKind> unKindOf(std::string_view op);

/// Stable mnemonics (golden disassembly depends on these spellings).
const char* binKindName(BinKind k);
const char* unKindName(UnKind k);

/// Apply a binary operator to one value tuple. nullopt = goal-directed
/// failure (comparisons); errors throw IconError.
std::optional<Value> applyBinary(BinKind k, const Value& a, const Value& b);

/// Apply a unary operator to one operand result. Keeps the variable
/// reference where the operator is transparent (\e, /e).
std::optional<Result> applyUnary(UnKind k, Result& r);

/// x[i] over one (collection, index) tuple: trapped variable for
/// lists/tables/records, character for strings; nullopt = out of range.
std::optional<Result> indexTuple(Result& c, Result& i);

/// o.name over one object result.
std::optional<Result> fieldTuple(Result& o, std::string_view name);

/// x[i:j] over one (collection, from, to) tuple; nullopt = out of range.
std::optional<Value> sliceTuple(const Value& v, const Value& from, const Value& to);

/// lhs := rhs over one tuple (throws on a non-variable lhs).
std::optional<Result> assignTuple(Result& l, Result& r);
/// lhs :=: rhs over one tuple.
std::optional<Result> swapTuple(Result& l, Result& r);
/// lhs op:= rhs over one tuple; nullopt when a comparison-augmented op
/// fails.
std::optional<Result> augAssignTuple(BinKind k, Result& l, Result& r);

/// Unary operation: for each operand result, apply fn; nullopt results
/// are filtered (the search continues with the next operand result).
class UnOpGen final : public Gen {
 public:
  using Fn = std::function<std::optional<Result>(Result&)>;

  UnOpGen(GenPtr operand, Fn fn) : operand_(std::move(operand)), fn_(std::move(fn)) {}

  static GenPtr create(GenPtr operand, Fn fn) {
    return std::make_shared<UnOpGen>(std::move(operand), std::move(fn));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override { operand_->restart(); }
  void forEachChild(Visit fn) override { fn(*operand_); }

 private:
  GenPtr operand_;
  Fn fn_;
};

/// Binary operation over the cross product of two operand sequences.
class BinOpGen final : public Gen {
 public:
  using Fn = std::function<std::optional<Result>(Result&, Result&)>;

  BinOpGen(GenPtr left, GenPtr right, Fn fn)
      : left_(std::move(left)), right_(std::move(right)), fn_(std::move(fn)) {}

  static GenPtr create(GenPtr left, GenPtr right, Fn fn) {
    return std::make_shared<BinOpGen>(std::move(left), std::move(right), std::move(fn));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { visit(fn, left_, right_); }

 private:
  GenPtr left_, right_;
  Fn fn_;
  Result leftResult_;
  bool leftActive_ = false;
};

/// Delegation over an operand product: for each tuple of operand results,
/// a factory creates an inner generator whose results are the node's
/// results until it fails, whereupon the operand product backtracks.
/// This is the engine behind invocation (the IconInvokeIterator of
/// Fig. 5) and `to`-`by` ranges with generator bounds.
class DelegateGen final : public Gen {
 public:
  using Factory = std::function<GenPtr(const std::vector<Result>&)>;

  DelegateGen(std::vector<GenPtr> operands, Factory factory)
      : operands_(std::move(operands)),
        current_(operands_.size()),
        factory_(std::move(factory)) {}

  static GenPtr create(std::vector<GenPtr> operands, Factory factory) {
    return std::make_shared<DelegateGen>(std::move(operands), std::move(factory));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override {
    for (auto& op : operands_) fn(*op);
  }

 private:
  bool advanceTuple();

  std::vector<GenPtr> operands_;
  std::vector<Result> current_;
  Factory factory_;
  GenPtr inner_;
  std::size_t bound_ = 0;
  bool exhaustedNullary_ = false;  // for the zero-operand case
};

/// Procedure invocation f(e1, ..., en): flattens callee and arguments via
/// the operand product and delegates iteration to the generator returned
/// by the procedure (Section V.A: "lifting an invocation f(x) takes its
/// closure and delegates iteration to the generator produced by its
/// invocation").
GenPtr makeInvokeGen(GenPtr callee, std::vector<GenPtr> args);

/// e1 to e2 [by e3] with generator operands.
GenPtr makeToByGen(GenPtr from, GenPtr to, GenPtr by /* may be null → 1 */);

/// Subscript x[i]: yields a trapped variable for lists and tables, a
/// character for strings; fails (goal-directed) when out of range.
GenPtr makeIndexGen(GenPtr collection, GenPtr index);

/// Field access o.name: trapped variable over a record field or table
/// entry.
GenPtr makeFieldGen(GenPtr object, std::string name);

/// Slice x[i:j] over Icon *positions* (1..n+1; nonpositive from the
/// right; bounds swap when reversed): substring for strings, section
/// copy for lists; fails when out of range.
GenPtr makeSliceGen(GenPtr collection, GenPtr from, GenPtr to);

/// Assignment lhs := rhs (yields the variable; products backtrack).
GenPtr makeAssignGen(GenPtr lhs, GenPtr rhs);
/// Swap lhs :=: rhs.
GenPtr makeSwapGen(GenPtr lhs, GenPtr rhs);
/// Reversible assignment lhs <- rhs: assigns and yields like :=, but a
/// resumption during backtracking RESTORES the old value and moves to
/// the next alternative (companion of string scanning; Icon 2nd ed.).
GenPtr makeRevAssignGen(GenPtr lhs, GenPtr rhs);
/// Reversible swap lhs <-> rhs.
GenPtr makeRevSwapGen(GenPtr lhs, GenPtr rhs);
/// Augmented assignment lhs op:= rhs for op in + - * / % ^ ||.
GenPtr makeAugAssignGen(std::string_view op, GenPtr lhs, GenPtr rhs);

/// List literal [e1, ..., en]: cross-product semantics — each element
/// expression contributes its result sequence, so [1|2] generates two
/// lists.
GenPtr makeListLitGen(std::vector<GenPtr> elements);

/// Standard unary/binary operators by name; throws std::invalid_argument
/// for unknown operators.
///   binary: + - * / % ^ || < <= > >= = ~= == ~== === ~===
///   unary:  - + * (size) ~ (not implemented for csets: error)
GenPtr makeBinaryOpGen(std::string_view op, GenPtr left, GenPtr right);
GenPtr makeUnaryOpGen(std::string_view op, GenPtr operand);

}  // namespace congen
