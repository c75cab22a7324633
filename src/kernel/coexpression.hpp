// coexpression.hpp — the unified first-class generator model.
//
// The paper's IconCoExpression (Section V.D) provides "a unified model
// for handling first-class generators as well as co-expressions and
// multithreaded proxies". CoExpression is that class: it owns a factory
// that can (re)build the underlying generator — for co-expressions the
// factory also re-copies the shadowed local environment — plus the
// activation (@) and refresh (^) operations of the calculus (Fig. 1).
// The multithreaded pipe (|>) derives from it in concur/pipe.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>

#include "kernel/gen.hpp"

namespace congen {

/// A first-class generator / co-expression. Derives RcBase (first base —
/// Value stores the upcast pointer) so a co-expression Value is the same
/// one-pointer, refcounted representation as every other heap type.
class CoExpression : public RcBase {
 public:
  /// The factory re-creates the body generator from scratch; environment
  /// shadowing is baked into it (it captures copies of the referenced
  /// locals — Section III.A's `((x,y,z)-> <>e)((()->[x,y,z])())`).
  /// The body is built EAGERLY, on the creating thread: Icon copies the
  /// environment at co-expression creation, so the snapshot must be
  /// taken here, before the enclosing code mutates its locals (and
  /// before a pipe's producer races them from another thread).
  explicit CoExpression(GenFactory factory)
      : RcBase(static_cast<std::uint8_t>(TypeTag::CoExpr)),
        factory_(std::move(factory)),
        body_(factory_()) {}

  static CoExprPtr create(GenFactory factory) {
    return makeRc<CoExpression>(std::move(factory));
  }

  /// Activation @c: step one iteration; nullopt is failure. Unlike a raw
  /// kernel generator, an exhausted co-expression stays exhausted until
  /// refreshed (Icon semantics).
  virtual std::optional<Value> activate() {
    if (exhausted_) return std::nullopt;
    auto v = body_->nextValue();
    if (!v) {
      exhausted_ = true;
      return std::nullopt;
    }
    ++results_;
    return v;
  }

  /// Deadline-bounded activation, used by the `timeout(c, ms)` builtin.
  /// The deadline bounds *waiting*, not computation: an implementation
  /// that can block (the multithreaded pipe) gives up and fails once the
  /// deadline passes, leaving the co-expression re-activatable; the base
  /// class never blocks, so it ignores the deadline entirely.
  virtual std::optional<Value> activateUntil(std::chrono::steady_clock::time_point /*deadline*/) {
    return activate();
  }

  /// Refresh ^c: a *new* co-expression re-built from the factory, with a
  /// fresh copy of the shadowed environment.
  [[nodiscard]] virtual CoExprPtr refreshed() const { return create(factory_); }

  /// How many results this co-expression has produced so far.
  [[nodiscard]] std::size_t resultCount() const noexcept { return results_; }
  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

 protected:
  [[nodiscard]] const GenFactory& factory() const noexcept { return factory_; }
  /// Transfer the eagerly-built body out (pipes hand it to the producer
  /// thread, which becomes its sole user).
  [[nodiscard]] GenPtr takeBody() noexcept { return std::move(body_); }

 private:
  // Declared before factory_/body_: the co-expression quota charge must
  // trip (throwing 812) BEFORE the expensive environment copy the eager
  // factory_() call performs. Destruction credits it back.
  governor::CoexprCharge quotaCharge_;
  GenFactory factory_;
  GenPtr body_;
  std::size_t results_ = 0;
  bool exhausted_ = false;
};

static_assert(std::is_base_of_v<RcBase, CoExpression>,
              "Value stores co-expressions behind an RcBase* upcast");

/// Kernel node for `<>e` / `|<>e`: yields a freshly created co-expression
/// value once per cycle. Environment shadowing is the factory's concern.
class CoExprCreateGen final : public Gen {
 public:
  /// `make` wraps the raw body factory into the kind of co-expression
  /// wanted (plain co-expression, or a pipe in concur/).
  using Maker = std::function<CoExprPtr(GenFactory)>;

  CoExprCreateGen(GenFactory bodyFactory, Maker make)
      : bodyFactory_(std::move(bodyFactory)), make_(std::move(make)) {}

  static GenPtr create(GenFactory bodyFactory) {
    return std::make_shared<CoExprCreateGen>(std::move(bodyFactory),
                                             [](GenFactory f) { return CoExpression::create(std::move(f)); });
  }
  static GenPtr create(GenFactory bodyFactory, Maker make) {
    return std::make_shared<CoExprCreateGen>(std::move(bodyFactory), std::move(make));
  }

 protected:
  bool doNext(Result& out) override {
    if (done_) return false;
    done_ = true;
    out.set(Value::coexpr(make_(bodyFactory_)));
    return true;
  }
  void doRestart() override { done_ = false; }

 private:
  GenFactory bodyFactory_;
  Maker make_;
  bool done_ = false;
};

/// Activation @c as a kernel node: for each co-expression produced by the
/// operand, one activation step per operand result (the paper's explicit
/// stepping).
class ActivateGen final : public Gen {
 public:
  explicit ActivateGen(GenPtr operand) : operand_(std::move(operand)) {}

  static GenPtr create(GenPtr operand) { return std::make_shared<ActivateGen>(std::move(operand)); }

 protected:
  bool doNext(Result& out) override;
  // The operand must be restarted explicitly: after a successful cycle it
  // is consumed-but-not-failed, so the failure-driven auto-restart never
  // fires. The activated co-expression itself keeps its position — only
  // the operand expression is re-evaluated.
  void doRestart() override { operand_->restart(); }
  void forEachChild(Visit fn) override { fn(*operand_); }

 private:
  GenPtr operand_;
};

/// Refresh ^c as a kernel node: yields a refreshed copy of each
/// co-expression the operand produces.
class RefreshGen final : public Gen {
 public:
  explicit RefreshGen(GenPtr operand) : operand_(std::move(operand)) {}

  static GenPtr create(GenPtr operand) { return std::make_shared<RefreshGen>(std::move(operand)); }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override { operand_->restart(); }
  void forEachChild(Visit fn) override { fn(*operand_); }

 private:
  GenPtr operand_;
};

}  // namespace congen
