#include "kernel/scan.hpp"

#include <stack>

#include "kernel/basic.hpp"
#include "kernel/ops.hpp"
#include "runtime/error.hpp"
#include "runtime/var.hpp"

namespace congen {

namespace {

struct ThreadScanStack {
  ScanEnv::State base;  // the default environment (empty subject, pos 1)
  std::stack<ScanEnv::State> stack;
};

ThreadScanStack& tls() {
  thread_local ThreadScanStack s;
  return s;
}

}  // namespace

ScanEnv::State& ScanEnv::current() {
  auto& s = tls();
  return s.stack.empty() ? s.base : s.stack.top();
}

void ScanEnv::push(State state) { tls().stack.push(std::move(state)); }

ScanEnv::State ScanEnv::pop() {
  auto& s = tls();
  State out = std::move(s.stack.top());
  s.stack.pop();
  return out;
}

std::size_t ScanEnv::depth() { return tls().stack.size(); }

std::optional<std::int64_t> ScanEnv::resolvePos(std::int64_t p) {
  const auto n = static_cast<std::int64_t>(current().subject.str().size());
  if (p <= 0) p = n + 1 + p;
  if (p < 1 || p > n + 1) return std::nullopt;
  return p;
}

// ---------------------------------------------------------------------
// ScanGen
// ---------------------------------------------------------------------

bool ScanGen::doNext(Result& out) {
  while (true) {
    if (scanning_) {
      // Swap the inner environment in around every body step (Icon swaps
      // on each suspension crossing the scan boundary). This keeps the
      // outer environment current while the scan is suspended, and an
      // abandoned scan can never leak its environment.
      ScanEnv::push(std::move(saved_));
      const bool produced = body_->next(out);
      saved_ = ScanEnv::pop();
      if (produced) return true;  // scan results are the body's results
      scanning_ = false;          // body exhausted: backtrack into the subject
      continue;
    }
    if (!subject_->next(out)) return false;
    if (out.isControl()) return true;
    // A string subject is shared as-is (no copy); non-strings coerce.
    saved_.subject = out.value.isString()
                         ? out.value
                         : Value::string(out.value.requireString("scan subject"));
    saved_.pos = 1;
    scanning_ = true;
    body_->restart();
  }
}

void ScanGen::doRestart() {
  scanning_ = false;
  saved_ = ScanEnv::State{};
  subject_->restart();  // body_ is restarted per subject
}

// ---------------------------------------------------------------------
// tab / move
// ---------------------------------------------------------------------

namespace {

/// The reversible position move shared by tab and move: first next()
/// performs the move and yields the spanned substring; the following
/// next() (a resumption during backtracking) undoes it and fails. A
/// restart keeps the move (a bounded tab/move is never resumed).
class TabStepGen final : public Gen {
 public:
  explicit TabStepGen(std::int64_t rawTarget) : rawTarget_(rawTarget) {}

 protected:
  bool doNext(Result& out) override {
    auto& env = ScanEnv::current();
    if (moved_) {  // resumed: restore and fail (reversible effect)
      env.pos = savedPos_;
      moved_ = false;
      return false;
    }
    const auto target = ScanEnv::resolvePos(rawTarget_);
    if (!target) return false;  // out of range: fail without moving
    savedPos_ = env.pos;
    env.pos = *target;
    const auto lo = std::min(savedPos_, *target);
    const auto hi = std::max(savedPos_, *target);
    moved_ = true;
    out.set(Value::string(env.subject.str().substr(static_cast<std::size_t>(lo - 1),
                                                   static_cast<std::size_t>(hi - lo))));
    return true;
  }
  void doRestart() override { moved_ = false; }

 private:
  std::int64_t rawTarget_;
  std::int64_t savedPos_ = 1;
  bool moved_ = false;
};

}  // namespace

GenPtr makeSubjectVarGen() {
  return VarGen::create(ComputedVar::create(
      [] { return ScanEnv::current().subject; },
      [](Value v) {
        auto& env = ScanEnv::current();
        env.subject = v.isString() ? std::move(v) : Value::string(v.requireString("&subject"));
        env.pos = 1;  // Icon: assigning &subject resets &pos
      }));
}

GenPtr makePosVarGen() {
  return VarGen::create(ComputedVar::create(
      [] { return Value::integer(ScanEnv::current().pos); },
      [](Value v) {
        const auto p = ScanEnv::resolvePos(v.requireInt64("&pos"));
        if (!p) throw errInvalidValue("&pos assignment out of range");
        ScanEnv::current().pos = *p;
      }));
}

GenPtr makeTabGen(GenPtr target) {
  std::vector<GenPtr> operands;
  operands.push_back(std::move(target));
  return DelegateGen::create(std::move(operands), [](const std::vector<Result>& t) -> GenPtr {
    return std::make_shared<TabStepGen>(t[0].value.requireInt64("tab position"));
  });
}

GenPtr makeMoveGen(GenPtr delta) {
  std::vector<GenPtr> operands;
  operands.push_back(std::move(delta));
  return DelegateGen::create(std::move(operands), [](const std::vector<Result>& t) -> GenPtr {
    const std::int64_t n = t[0].value.requireInt64("move delta");
    return std::make_shared<TabStepGen>(ScanEnv::current().pos + n);
  });
}

}  // namespace congen
