// compose.hpp — structural composition of generators: sequence, product,
// alternation, bound iteration, limiting, promotion.
//
// These nodes realize the stream-like interface of Section V.B: the `&`
// product embodies both cross-product iteration and conditional
// evaluation; `|` concatenates result sequences; `!` promotes values to
// element generators; `x in e` is the bound iteration the normalization
// pass introduces when flattening nested generators.
#pragma once

#include <vector>

#include "kernel/gen.hpp"

namespace congen {

/// Sequence of expressions (a; b; c) / statement lists.
///
/// In expression mode, all terms but the last are *bounded* (limited to
/// one result) and the last term delegates full iteration, per Section II.
/// In body mode (procedure bodies, loop bodies), every term is bounded and
/// the sequence fails at the end; only suspend/return control results
/// propagate out. Control-flagged results always propagate unchanged.
class SeqGen final : public Gen {
 public:
  enum class Mode { Expression, Body };

  SeqGen(std::vector<GenPtr> children, Mode mode)
      : children_(std::move(children)), mode_(mode) {}

  static GenPtr create(std::vector<GenPtr> children, Mode mode = Mode::Expression) {
    return std::make_shared<SeqGen>(std::move(children), mode);
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override {
    for (auto& c : children_) fn(*c);
  }

 private:
  std::vector<GenPtr> children_;
  Mode mode_;
  std::size_t index_ = 0;
  bool terminated_ = false;  // saw kReturn/kFailBody
};

/// The iterator product e & e' (Section II): for each result of the left
/// operand, iterate the right operand to failure; the product's results
/// are the right operand's results. Backtracking restarts the right
/// operand for every left result.
class ProductGen final : public Gen {
 public:
  ProductGen(GenPtr left, GenPtr right) : left_(std::move(left)), right_(std::move(right)) {}

  static GenPtr create(GenPtr left, GenPtr right) {
    return std::make_shared<ProductGen>(std::move(left), std::move(right));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { visit(fn, left_, right_); }

 private:
  GenPtr left_, right_;
  bool leftActive_ = false;
};

/// Alternation e | e' | ...: concatenation of result sequences.
class AltGen final : public Gen {
 public:
  explicit AltGen(std::vector<GenPtr> children) : children_(std::move(children)) {}

  static GenPtr create(std::vector<GenPtr> children) {
    return std::make_shared<AltGen>(std::move(children));
  }
  static GenPtr create(GenPtr a, GenPtr b) {
    std::vector<GenPtr> children;
    children.push_back(std::move(a));
    children.push_back(std::move(b));
    return create(std::move(children));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override {
    for (auto& c : children_) fn(*c);
  }

 private:
  std::vector<GenPtr> children_;
  std::size_t index_ = 0;
};

/// Bound iteration (x in e): assigns each result of e to the variable and
/// yields the variable (the IconIn of Fig. 5, introduced by flattening).
class InGen final : public Gen {
 public:
  InGen(VarPtr var, GenPtr source) : var_(std::move(var)), source_(std::move(source)) {}

  static GenPtr create(VarPtr var, GenPtr source) {
    return std::make_shared<InGen>(std::move(var), std::move(source));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { fn(*source_); }

 private:
  VarPtr var_;
  GenPtr source_;
};

/// Limitation e \ n: at most n results of e per cycle. The bound itself
/// is an expression; its first result is taken at the start of each cycle.
class LimitGen final : public Gen {
 public:
  LimitGen(GenPtr expr, GenPtr bound) : expr_(std::move(expr)), bound_(std::move(bound)) {}

  static GenPtr create(GenPtr expr, GenPtr bound) {
    return std::make_shared<LimitGen>(std::move(expr), std::move(bound));
  }
  /// Fixed-count convenience (bounded expressions use n = 1).
  static GenPtr create(GenPtr expr, std::int64_t n);

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { visit(fn, expr_, bound_); }

 private:
  GenPtr expr_, bound_;
  std::int64_t remaining_ = 0;
  bool boundTaken_ = false;
};

/// not e: succeeds with &null exactly when e fails.
class NotGen final : public Gen {
 public:
  explicit NotGen(GenPtr expr) : expr_(std::move(expr)) {}

  static GenPtr create(GenPtr expr) { return std::make_shared<NotGen>(std::move(expr)); }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { fn(*expr_); }

 private:
  GenPtr expr_;
  bool done_ = false;
};

/// Repeated alternation |e: the results of e, over and over, until a full
/// pass produces nothing (which would otherwise loop forever).
class RepeatAltGen final : public Gen {
 public:
  explicit RepeatAltGen(GenPtr expr) : expr_(std::move(expr)) {}

  static GenPtr create(GenPtr expr) { return std::make_shared<RepeatAltGen>(std::move(expr)); }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { fn(*expr_); }

 private:
  GenPtr expr_;
  bool producedThisPass_ = false;
};

/// Element promotion !e: for each value of the operand, generate its
/// elements — list elements (as assignable trapped variables), string
/// characters, table values, set members, or the results of activating a
/// co-expression/pipe (the lifting operator of Fig. 1).
class PromoteGen final : public Gen {
 public:
  explicit PromoteGen(GenPtr operand) : operand_(std::move(operand)) {}

  static GenPtr create(GenPtr operand) { return std::make_shared<PromoteGen>(std::move(operand)); }

  /// The per-value element generator (exposed for builtins and tests).
  static GenPtr makeElementGen(const Value& v);

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { fn(*operand_); }

 private:
  GenPtr operand_;
  GenPtr inner_;
};

}  // namespace congen
