// control.hpp — control constructs: if, every, while, until, repeat, and
// the procedure-body protocol (suspend / return / fail).
//
// Loops drive their body as a *bounded* expression once per control
// iteration; only suspend/return results propagate out of them, which is
// how `every x := !l do suspend f(x)` turns a loop into a generator.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/gen.hpp"
#include "obs/runtime_stats.hpp"

namespace congen {

/// if e1 then e2 [else e3] — the condition is bounded; the chosen branch
/// delegates full iteration (if/then/else is itself a generator).
class IfGen final : public Gen {
 public:
  IfGen(GenPtr cond, GenPtr thenBranch, GenPtr elseBranch)
      : cond_(std::move(cond)), then_(std::move(thenBranch)), else_(std::move(elseBranch)) {}

  static GenPtr create(GenPtr cond, GenPtr thenBranch, GenPtr elseBranch = nullptr) {
    return std::make_shared<IfGen>(std::move(cond), std::move(thenBranch), std::move(elseBranch));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { visit(fn, cond_, then_, else_); }

 private:
  GenPtr cond_, then_, else_;
  Gen* branch_ = nullptr;
  bool decided_ = false;
};

/// Shared machinery for every/while/until/repeat: drives a bounded body
/// with suspend/return propagation and break/next handling.
class LoopGen : public Gen {
 public:
  enum class Kind { Every, While, Until, Repeat };

  LoopGen(Kind kind, GenPtr control, GenPtr body)
      : kind_(kind), control_(std::move(control)), body_(std::move(body)) {}

  static GenPtr every(GenPtr control, GenPtr body = nullptr) {
    return std::make_shared<LoopGen>(Kind::Every, std::move(control), std::move(body));
  }
  static GenPtr whileDo(GenPtr cond, GenPtr body = nullptr) {
    return std::make_shared<LoopGen>(Kind::While, std::move(cond), std::move(body));
  }
  static GenPtr untilDo(GenPtr cond, GenPtr body = nullptr) {
    return std::make_shared<LoopGen>(Kind::Until, std::move(cond), std::move(body));
  }
  static GenPtr repeat(GenPtr body) {
    return std::make_shared<LoopGen>(Kind::Repeat, nullptr, std::move(body));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { visit(fn, control_, body_); }

 private:
  /// Advance the control expression once; returns false when the loop is
  /// over. For `every` the control generator is resumed; for while/until
  /// it is restarted and its (first) success/failure tested. A control
  /// result carrying suspend/return flags is left in `out` with
  /// `propagate` set.
  bool stepControl(Result& out, bool& propagate);

  Kind kind_;
  GenPtr control_;
  GenPtr body_;
  bool inBody_ = false;
  bool done_ = false;
};

/// case e of { v1: b1; v2 | v3: b2; default: bd } — the control
/// expression is bounded; branch value expressions are generators (so
/// `v2 | v3` matches either); the first branch whose value is
/// equivalent (===) to the control value delegates full iteration, as
/// with if-then-else. No match and no default: the case fails.
class CaseGen final : public Gen {
 public:
  struct Branch {
    GenPtr value;  // nullptr = default branch
    GenPtr body;
  };

  CaseGen(GenPtr control, std::vector<Branch> branches)
      : control_(std::move(control)), branches_(std::move(branches)) {}

  static GenPtr create(GenPtr control, std::vector<Branch> branches) {
    return std::make_shared<CaseGen>(std::move(control), std::move(branches));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override {
    fn(*control_);
    for (auto& b : branches_) visit(fn, b.value, b.body);
  }

 private:
  GenPtr control_;
  std::vector<Branch> branches_;
  Gen* selected_ = nullptr;
  bool decided_ = false;
};

/// suspend e — every result of e propagates to the enclosing body root.
class SuspendGen final : public Gen {
 public:
  explicit SuspendGen(GenPtr expr) : expr_(std::move(expr)) {}

  static GenPtr create(GenPtr expr) { return std::make_shared<SuspendGen>(std::move(expr)); }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override { expr_->restart(); }
  void forEachChild(Visit fn) override { fn(*expr_); }

 private:
  GenPtr expr_;
};

/// return e — the first result of e terminates the body; if e fails the
/// procedure fails (Icon semantics).
class ReturnGen final : public Gen {
 public:
  explicit ReturnGen(GenPtr expr) : expr_(std::move(expr)) {}

  static GenPtr create(GenPtr expr) { return std::make_shared<ReturnGen>(std::move(expr)); }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override { expr_->restart(); }
  void forEachChild(Visit fn) override { fn(*expr_); }

 private:
  GenPtr expr_;
};

/// fail — terminates the body with failure.
class FailBodyGen final : public Gen {
 public:
  static GenPtr create() { return std::make_shared<FailBodyGen>(); }

 protected:
  bool doNext(Result& out) override {
    out.set(Value::null(), nullptr, Result::kFailBody);
    return true;
  }
  void doRestart() override {}
};

/// break / next — loop-control signals (caught by the innermost LoopGen).
class BreakGen final : public Gen {
 public:
  static GenPtr create() { return std::make_shared<BreakGen>(); }

 protected:
  [[noreturn]] bool doNext(Result&) override { throw BreakSignal{}; }
  void doRestart() override {}
};

class NextGen final : public Gen {
 public:
  static GenPtr create() { return std::make_shared<NextGen>(); }

 protected:
  [[noreturn]] bool doNext(Result&) override { throw NextSignal{}; }
  void doRestart() override {}
};

/// A mutex-guarded free list of parked procedure-body trees — one pool
/// per procedure. BodyRootGen parks itself here on completion; callers
/// take() a parked body and rebind its arguments instead of rebuilding
/// the Gen tree (Fig. 5's "cached in a stack upon method return", made
/// thread-safe so procedures can be invoked from pool threads: pipes,
/// mapReduce). The pool is bounded — deep recursion retires extra
/// bodies rather than hoarding them.
class BodyPool {
 public:
  [[nodiscard]] GenPtr take() {
    const bool metrics = obs::metricsEnabled();
    std::lock_guard lock(mu_);
    // A body parks itself the moment it terminates — while its caller may
    // still hold a reference for goal-directed resumption (e.g. a nested
    // call to the same procedure). Handing such a body out would rebind a
    // frame another call site can still restart, so only sole-owned
    // entries are reused; aliased ones stay parked until their holder
    // lets go. Counts cannot rise while we hold the lock (only the pool
    // could mint copies), so use_count()==1 cannot go stale here.
    for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
      if (it->use_count() == 1) {
        // The last outside holder may still have read the body after it
        // parked (re-polling a terminated body reads its flag), possibly
        // on another thread; its release decrement of the count is the
        // only record that it is done. use_count() is a relaxed load, so
        // acquire that decrement before the body is rebound: the fence
        // does so in the memory model, and copying the entry (an acq_rel
        // increment in libstdc++) does so in a form TSan can see.
        std::atomic_thread_fence(std::memory_order_acquire);
        GenPtr body = *it;
        free_.erase(std::next(it).base());
        if (metrics) [[unlikely]] obs::KernelStats::get().framesPooled.add(1);
        return body;
      }
    }
    // A take() miss means the caller builds a fresh body (frame) tree.
    if (metrics) [[unlikely]] obs::KernelStats::get().framesAllocated.add(1);
    return nullptr;
  }

  void put(GenPtr body) {
    const bool metrics = obs::metricsEnabled();
    std::lock_guard lock(mu_);
    if (free_.size() < kMaxParked) {
      free_.push_back(std::move(body));
      if (metrics) [[unlikely]] obs::KernelStats::get().framesParked.add(1);
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return free_.size();
  }

 private:
  static constexpr std::size_t kMaxParked = 64;
  mutable std::mutex mu_;
  std::vector<GenPtr> free_;
};

/// Name-keyed pools — the MethodBodyCache interface of Fig. 5. poolFor()
/// returns a stable BodyPool* so a call site resolves its name once (at
/// body construction) instead of hashing the key on every call.
class MethodBodyCache {
 public:
  [[nodiscard]] BodyPool* poolFor(const std::string& name) {
    std::lock_guard lock(mu_);
    auto& p = pools_[name];
    if (!p) p = std::make_unique<BodyPool>();
    return p.get();
  }

  /// Pop a cached body for `name`, or nullptr.
  GenPtr getFree(const std::string& name) { return poolFor(name)->take(); }

  /// Return a body to the free list.
  void putFree(const std::string& name, GenPtr body) { poolFor(name)->put(std::move(body)); }

  [[nodiscard]] std::size_t size(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = pools_.find(name);
    return it == pools_.end() ? 0 : it->second->size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<BodyPool>> pools_;
};

/// The root of a procedure body: strips suspend/return flags into plain
/// results for the caller, terminates after return/fail, and optionally
/// parks itself for reuse upon completion (the "cached in a stack upon
/// method return" optimization of Section V.D). Parking goes either to a
/// BodyPool (raw pointer: the pool's owner must outlive the body — the
/// emitted-module contract) or through a recycler closure that can keep
/// the pool's owner alive (the interpreter's contract).
class BodyRootGen final : public Gen, public std::enable_shared_from_this<BodyRootGen> {
 public:
  using Unpack = std::function<void(const std::vector<Value>&)>;
  using Recycler = std::function<void(std::shared_ptr<BodyRootGen>)>;

  explicit BodyRootGen(GenPtr inner) : inner_(std::move(inner)) {}

  static std::shared_ptr<BodyRootGen> create(GenPtr inner) {
    return std::make_shared<BodyRootGen>(std::move(inner));
  }

  /// Install the parameter-rebinding closure (Fig. 5's unpack lambda).
  BodyRootGen& setUnpackClosure(Unpack unpack) {
    unpack_ = std::move(unpack);
    return *this;
  }

  /// Rebind arguments and reset — used on a fresh or cache-reused body.
  BodyRootGen& unpackArgs(const std::vector<Value>& args) {
    if (unpack_) unpack_(args);
    restart();
    return *this;
  }

  /// Park into `pool` on completion (pool must outlive this body).
  BodyRootGen& setPool(BodyPool* pool) {
    pool_ = pool;
    return *this;
  }

  /// Park through a closure on completion (may own the pool).
  BodyRootGen& setRecycler(Recycler recycler) {
    recycler_ = std::move(recycler);
    return *this;
  }

  /// Attach to a name-keyed cache: resolves the pool once, here.
  BodyRootGen& setCache(MethodBodyCache* cache, const std::string& key) {
    return setPool(cache->poolFor(key));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;
  void forEachChild(Visit fn) override { fn(*inner_); }

 private:
  void park() {
    if (!pool_ && !recycler_) return;
    // Release before parking: a parked tree must not pin what its last
    // activation left in its nodes. An abandoned pipe would keep its
    // producer blocked on a pool thread, and an operand tuple holding
    // this procedure's own value would close a cycle pool → body →
    // value → pool that shared_ptr never reclaims. The take path skips
    // its reset when the tree is already clean (parkedClean_).
    inner_->release();
    if (unpack_) unpack_({});  // null every frame slot
    parkedClean_ = true;
    if (pool_) {
      pool_->put(shared_from_this());
    } else {
      recycler_(shared_from_this());
    }
  }

  GenPtr inner_;
  Unpack unpack_;
  BodyPool* pool_ = nullptr;
  Recycler recycler_;
  bool terminated_ = false;
  bool parkedClean_ = false;
};

}  // namespace congen
