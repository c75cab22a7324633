#include "interp/interpreter.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string_view>

#include "builtins/builtins.hpp"
#include "concur/pipe.hpp"
#include "frontend/parser.hpp"
#include "interp/compiler.hpp"
#include "interp/frame.hpp"
#include "interp/resolver.hpp"
#include "interp/vm.hpp"
#include "kernel/basic.hpp"
#include "kernel/compose.hpp"
#include "kernel/control.hpp"
#include "kernel/coexpression.hpp"
#include "kernel/error_env.hpp"
#include "kernel/ops.hpp"
#include "kernel/scan.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/atom.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "runtime/record.hpp"
#include "transform/normalize.hpp"

namespace congen::interp {

using ast::Kind;
using ast::NodePtr;

namespace {

Value parseIntLiteral(const std::string& text) {
  const auto r = text.find_first_of("rR");
  if (r != std::string::npos) {
    const unsigned radix = static_cast<unsigned>(std::stoul(text.substr(0, r)));
    return Value::integer(BigInt::fromString(text.substr(r + 1), radix));
  }
  return Value::integer(BigInt::fromString(text, 10));
}

}  // namespace

Backend defaultBackend() {
  static const Backend b = [] {
    const char* env = std::getenv("CONGEN_BACKEND");
    return env != nullptr && std::string_view(env) == "vm" ? Backend::kVm : Backend::kTree;
  }();
  return b;
}

/// Compiles AST nodes to kernel generator trees. Two modes:
///  - scope mode (top-level, eval, co-expression bodies): names resolve
///    by walking a Scope chain, with implicit declaration on first use;
///  - frame mode (procedure bodies): the resolution pass has annotated
///    every name node with its classification, and identifiers compile
///    to direct slot references into one flat Frame — no chain walk, no
///    per-call hashmap.
class Compiler {
 public:
  Compiler(Interpreter& interp, ScopePtr scope)
      : interp_(interp), scope_(std::move(scope)) {}

  Compiler(Interpreter& interp, ScopePtr scope, const FrameLayout* layout, Frame* frame)
      : interp_(interp), scope_(std::move(scope)), layout_(layout), frame_(frame) {}

  // -- expression compilation -----------------------------------------
  GenPtr expr(const NodePtr& n) {
    switch (n->kind) {
      case Kind::IntLit: return ConstGen::create(parseIntLiteral(n->text));
      case Kind::RealLit: return ConstGen::create(Value::real(std::stod(n->text)));
      case Kind::StrLit: return ConstGen::create(atomString(n->text));
      case Kind::NullLit: return NullGen::create();
      case Kind::FailLit: return FailGen::create();
      case Kind::Ident:
      case Kind::TempRef: return identifier(n);
      case Kind::KeywordVar:
        if (n->text == "subject") return makeSubjectVarGen();
        if (n->text == "error") return makeErrorVarGen();
        if (n->text == "errornumber") return makeErrorNumberVarGen();
        if (n->text == "errorvalue") return makeErrorValueVarGen();
        return makePosVarGen();
      case Kind::ListLit: return listLiteral(n);
      case Kind::Binary: return binary(n);
      case Kind::Unary: return unary(n);
      // NOTE: every multi-operand case compiles its children into named
      // locals first — C++ leaves function-argument evaluation order
      // unspecified, and compilation order matters because BoundIter
      // declares the temporaries that later TempRefs resolve to.
      case Kind::Assign: {
        auto lhs = expr(n->kids[0]);
        auto rhs = expr(n->kids[1]);
        if (n->text == ":=") return makeAssignGen(std::move(lhs), std::move(rhs));
        if (n->text == "<-") return makeRevAssignGen(std::move(lhs), std::move(rhs));
        return makeAugAssignGen(std::string_view(n->text).substr(0, n->text.size() - 2),
                                std::move(lhs), std::move(rhs));
      }
      case Kind::Swap: {
        auto lhs = expr(n->kids[0]);
        auto rhs = expr(n->kids[1]);
        if (n->text == "<->") return makeRevSwapGen(std::move(lhs), std::move(rhs));
        return makeSwapGen(std::move(lhs), std::move(rhs));
      }
      case Kind::ToBy: {
        auto from = expr(n->kids[0]);
        auto to = expr(n->kids[1]);
        auto by = n->kids.size() > 2 ? expr(n->kids[2]) : nullptr;
        return makeToByGen(std::move(from), std::move(to), std::move(by));
      }
      case Kind::Limit: {
        auto e = expr(n->kids[0]);
        auto bound = expr(n->kids[1]);
        return LimitGen::create(std::move(e), std::move(bound));
      }
      case Kind::Index: {
        auto coll = expr(n->kids[0]);
        auto idx = expr(n->kids[1]);
        return makeIndexGen(std::move(coll), std::move(idx));
      }
      case Kind::Slice: {
        auto coll = expr(n->kids[0]);
        auto from = expr(n->kids[1]);
        auto to = expr(n->kids[2]);
        return makeSliceGen(std::move(coll), std::move(from), std::move(to));
      }
      case Kind::Field: return makeFieldGen(expr(n->kids[0]), n->text);
      case Kind::Invoke: return invoke(n);
      case Kind::NativeInvoke: return nativeInvoke(n);
      case Kind::ExprSeq: return sequence(n, SeqGen::Mode::Expression);
      case Kind::Not: return NotGen::create(expr(n->kids[0]));
      case Kind::BoundIter: {
        auto var = frame_ && n->slot >= 0 ? frame_->var(static_cast<std::size_t>(n->slot))
                                          : scope_->declare(n->text);
        return InGen::create(std::move(var), expr(n->kids[0]));
      }
      case Kind::IfStmt: {  // usable in expression position
        auto cond = expr(n->kids[0]);
        auto thenB = statement(n->kids[1]);
        auto elseB = n->kids.size() > 2 ? statement(n->kids[2]) : nullptr;
        return IfGen::create(std::move(cond), std::move(thenB), std::move(elseB));
      }
      case Kind::Block:
      case Kind::EveryStmt:
      case Kind::WhileStmt:
      case Kind::UntilStmt:
      case Kind::RepeatStmt:
      case Kind::CaseStmt:
      case Kind::SuspendStmt:
        // Control constructs are expressions in Icon (e.g. as a scan
        // body: s ? while ...).
        return statement(n);
      default:
        throw IconError(600, "cannot evaluate node in expression position: " + ast::dump(n));
    }
  }

  // -- statement compilation -------------------------------------------
  GenPtr statement(const NodePtr& n) {
    switch (n->kind) {
      case Kind::Block: return sequence(n, SeqGen::Mode::Body);
      case Kind::ExprStmt: return expr(n->kids[0]);
      case Kind::DeclList: {
        std::vector<GenPtr> inits;
        for (const auto& decl : n->kids) {
          auto var = frame_ && decl->slot >= 0 ? frame_->var(static_cast<std::size_t>(decl->slot))
                                               : scope_->declare(decl->text);
          if (!decl->kids.empty()) {
            inits.push_back(makeAssignGen(VarGen::create(var), expr(decl->kids[0])));
          }
        }
        if (inits.empty()) return NullGen::create();
        return SeqGen::create(std::move(inits), SeqGen::Mode::Body);
      }
      case Kind::EveryStmt: {
        auto control = expr(n->kids[0]);
        auto body = n->kids.size() > 1 ? statement(n->kids[1]) : nullptr;
        return LoopGen::every(std::move(control), std::move(body));
      }
      case Kind::WhileStmt: {
        auto cond = expr(n->kids[0]);
        auto body = n->kids.size() > 1 ? statement(n->kids[1]) : nullptr;
        return LoopGen::whileDo(std::move(cond), std::move(body));
      }
      case Kind::UntilStmt: {
        auto cond = expr(n->kids[0]);
        auto body = n->kids.size() > 1 ? statement(n->kids[1]) : nullptr;
        return LoopGen::untilDo(std::move(cond), std::move(body));
      }
      case Kind::RepeatStmt: return LoopGen::repeat(statement(n->kids[0]));
      case Kind::IfStmt: {
        auto cond = expr(n->kids[0]);
        auto thenB = statement(n->kids[1]);
        auto elseB = n->kids.size() > 2 ? statement(n->kids[2]) : nullptr;
        return IfGen::create(std::move(cond), std::move(thenB), std::move(elseB));
      }
      case Kind::SuspendStmt:
        return SuspendGen::create(n->kids.empty() ? NullGen::create() : expr(n->kids[0]));
      case Kind::ReturnStmt:
        return ReturnGen::create(n->kids.empty() ? NullGen::create() : expr(n->kids[0]));
      case Kind::FailStmt: return FailBodyGen::create();
      case Kind::BreakStmt: return BreakGen::create();
      case Kind::NextStmt: return NextGen::create();
      case Kind::CaseStmt: {
        auto control = expr(n->kids[0]);
        std::vector<CaseGen::Branch> branches;
        for (std::size_t i = 1; i < n->kids.size(); ++i) {
          const NodePtr& b = n->kids[i];
          CaseGen::Branch branch;
          if (b->text == "default") {
            branch.body = statement(b->kids[0]);
          } else {
            branch.value = expr(b->kids[0]);
            branch.body = statement(b->kids[1]);
          }
          branches.push_back(std::move(branch));
        }
        return CaseGen::create(std::move(control), std::move(branches));
      }
      case Kind::RecordDecl: {
        interp_.globals_->declare(n->text, Value::proc(makeRecordConstructor(n)));
        return NullGen::create();
      }
      case Kind::GlobalDecl: {
        for (const auto& name : n->kids) {
          if (!interp_.globals_->lookup(name->text)) interp_.globals_->declare(name->text);
        }
        return NullGen::create();
      }
      case Kind::Def: {
        // Nested definitions honour the configured backend, like
        // top-level ones.
        interp_.globals_->declare(n->text, Value::proc(interp_.makeProcedure(n)));
        return NullGen::create();
      }
      default: return expr(n);
    }
  }

  /// `record name(f1, ..., fn)` declares a constructor procedure.
  static ProcPtr makeRecordConstructor(const NodePtr& decl) {
    std::vector<std::string> fields;
    fields.reserve(decl->kids.size());
    for (const auto& f : decl->kids) fields.push_back(f->text);
    auto type = RecordType::create(decl->text, std::move(fields));
    return ProcImpl::create(decl->text, [type](std::vector<Value> args) -> GenPtr {
      return ConstGen::create(Value::record(RecordImpl::create(type, std::move(args))));
    });
  }

  /// Per-procedure compile-once state: the frame layout (resolved lazily
  /// at first call, under call_once so pool threads can race the first
  /// invocation), and the free list of parked body trees.
  struct ProcState {
    Interpreter* interp;
    NodePtr params, body;
    std::once_flag once;
    FrameLayout layout;
    std::shared_ptr<BodyPool> pool = std::make_shared<BodyPool>();
  };

  /// Build a procedure value. Invocation takes a parked body from the
  /// procedure's pool and rebinds its frame (no Scope, no hashmap, no
  /// re-compilation); only when the pool is dry is a body compiled — once
  /// — against a fresh flat frame. Parameters are variadic: missing args
  /// are &null, extras ignored (Unicon convention). Bodies that create
  /// co-expressions are not poolable (their environments outlive the
  /// call) and fall back to one fresh frame+tree per call.
  ProcPtr makeProc(const NodePtr& def) {
    auto state = std::make_shared<ProcState>();
    state->interp = &interp_;  // procedures close over the interpreter's globals
    state->params = def->kids[0];
    state->body = def->kids[1];
    return ProcImpl::create(def->text, [state](std::vector<Value> args) -> GenPtr {
      std::call_once(state->once, [&] {
        state->layout = resolve(state->params, state->body, *state->interp->globals_);
      });
      if (state->layout.poolable) {
        if (auto parked = state->pool->take()) {
          std::static_pointer_cast<BodyRootGen>(parked)->unpackArgs(args);
          return parked;
        }
      }
      auto frame = std::make_shared<Frame>(state->layout, state->interp->globals_);
      frame->rebind(args);
      Compiler c(*state->interp, state->interp->globals_, &state->layout, frame.get());
      auto root = BodyRootGen::create(c.statement(state->body));
      root->setUnpackClosure([frame](const std::vector<Value>& a) { frame->rebind(a); });
      if (state->layout.poolable) {
        // Weak on purpose: a parked body living in the pool must not
        // itself keep the pool alive (pool → body → recycler → pool is
        // an unreclaimable cycle). If the procedure value is dropped
        // while a body is in flight, parking just becomes a no-op.
        root->setRecycler([weakPool = std::weak_ptr<BodyPool>(state->pool)](
                              std::shared_ptr<BodyRootGen> b) {
          if (auto pool = weakPool.lock()) pool->put(std::move(b));
        });
      }
      return root;
    });
  }

 private:
  GenPtr identifier(const NodePtr& n) {
    if (frame_) {
      switch (n->res) {
        case ast::Res::Slot:
        case ast::Res::Late:
          return VarGen::create(frame_->var(static_cast<std::size_t>(n->slot)));
        case ast::Res::Global:
          if (auto var = interp_.globals_->lookup(n->text)) return VarGen::create(var);
          break;  // resolved-away global: fall back by name
        case ast::Res::Builtin:
          if (const Value* b = builtins::lookupConst(n->text)) return ConstGen::create(*b);
          break;
        case ast::Res::Unresolved:
          if (const auto slot = layout_->slotOf(n->text); slot >= 0) {
            return VarGen::create(frame_->var(static_cast<std::size_t>(slot)));
          }
          break;
      }
    }
    if (auto var = scope_->lookup(n->text)) return VarGen::create(var);
    // Builtins compile to their interned constants — one Value per
    // builtin for the process, not a fresh wrapper per compile.
    if (const Value* b = builtins::lookupConst(n->text)) return ConstGen::create(*b);
    // Undeclared: implicitly local to the current scope (Unicon's loose
    // default); first read yields &null.
    return VarGen::create(scope_->declare(n->text));
  }

  GenPtr listLiteral(const NodePtr& n) {
    std::vector<GenPtr> elems;
    elems.reserve(n->kids.size());
    for (const auto& k : n->kids) elems.push_back(expr(k));
    return makeListLitGen(std::move(elems));
  }

  GenPtr sequence(const NodePtr& n, SeqGen::Mode mode) {
    std::vector<GenPtr> terms;
    terms.reserve(n->kids.size());
    for (const auto& k : n->kids) terms.push_back(statement(k));
    if (terms.empty()) return mode == SeqGen::Mode::Body ? FailGen::create() : NullGen::create();
    return SeqGen::create(std::move(terms), mode);
  }

  GenPtr binary(const NodePtr& n) {
    auto lhs = expr(n->kids[0]);  // compile order is load-bearing: see the
    auto rhs = expr(n->kids[1]);  // NOTE on temporaries above
    if (n->text == "&") return ProductGen::create(std::move(lhs), std::move(rhs));
    if (n->text == "|") return AltGen::create(std::move(lhs), std::move(rhs));
    if (n->text == "?") return ScanGen::create(std::move(lhs), std::move(rhs));
    return makeBinaryOpGen(n->text, std::move(lhs), std::move(rhs));
  }

  GenPtr unary(const NodePtr& n) {
    const std::string& op = n->text;
    if (op == "!") return PromoteGen::create(expr(n->kids[0]));
    if (op == "@") return ActivateGen::create(expr(n->kids[0]));
    if (op == "^") return RefreshGen::create(expr(n->kids[0]));
    if (op == "|") return RepeatAltGen::create(expr(n->kids[0]));
    if (op == "<>") return CoExprCreateGen::create(coExprFactory(n->kids[0], /*shadow=*/false));
    if (op == "|<>") return CoExprCreateGen::create(coExprFactory(n->kids[0], /*shadow=*/true));
    if (op == "|>") {
      return makePipeCreateGen(coExprFactory(n->kids[0], /*shadow=*/true),
                               interp_.options_.pipeCapacity, ThreadPool::global());
    }
    return makeUnaryOpGen(op, expr(n->kids[0]));
  }

  /// Body factory for <> / |<> / |>. With shadowing, the factory
  /// snapshots every referenced *local* into a fresh cell each time it
  /// runs (creation and every ^ refresh) — Section III.A.
  ///
  /// In frame mode the enclosing locals are slots, not scope entries, so
  /// the factory enumerates the frame's slot bindings: `<>` aliases every
  /// slot cell into one scope shared across refreshes (cells shared with
  /// the enclosing body), while `|<>` / `|>` copy the current value of
  /// each referenced, currently-local slot into a fresh cell per run.
  GenFactory coExprFactory(const NodePtr& body, bool shadow) {
    Interpreter* interp = &interp_;
    NodePtr bodyAst = body;
    if (frame_) {
      // Capture only the slots the body can actually name. Capturing the
      // whole frame lets a co-expression stored in one of the enclosing
      // locals (mapReduce's `put(tasks, t)`) close a cell → value →
      // factory → cell cycle that shared_ptr can never reclaim. For
      // shadow mode the referenced-name filter already ran per refresh;
      // hoisting it here is observationally identical. For alias mode
      // the filter must keep body-bound names too: `local x` inside a
      // `<>` body rebinds the *enclosing* slot cell.
      const auto referenced =
          shadow ? transform::freeIdents(bodyAst) : transform::mentionedIdents(bodyAst);
      std::vector<std::pair<std::string, VarPtr>> slotVars;
      for (std::size_t i = 0; i < frame_->slotCount(); ++i) {
        const std::string& name = layout_->slotNames[i];
        if (std::find(referenced.begin(), referenced.end(), name) == referenced.end()) continue;
        slotVars.emplace_back(name, frame_->var(i));
      }
      if (!shadow) {
        auto alias = interp_.globals_->child();
        for (auto& [name, var] : slotVars) alias->bind(name, var);
        return [interp, alias, bodyAst]() -> GenPtr {
          Compiler c(*interp, alias);
          return c.expr(bodyAst);
        };
      }
      ScopePtr globals = interp_.globals_;
      return [interp, globals, bodyAst, slotVars = std::move(slotVars)]() -> GenPtr {
        auto shadowScope = globals->child();
        for (const auto& [name, var] : slotVars) {
          if (auto late = std::dynamic_pointer_cast<LateBoundVar>(var)) {
            // A late-bound name only shadows while it is acting as a
            // local; once a global exists the co-expression shares it.
            if (late->actsAsLocal()) shadowScope->declare(name, late->frameCell()->get());
          } else {
            shadowScope->declare(name, var->get());  // copy, don't alias
          }
        }
        Compiler c(*interp, shadowScope);
        return c.expr(bodyAst);
      };
    }
    ScopePtr enclosing = scope_;
    if (!shadow) {
      return [interp, enclosing, bodyAst]() -> GenPtr {
        Compiler c(*interp, enclosing);
        return c.expr(bodyAst);
      };
    }
    auto referenced = transform::freeIdents(bodyAst);
    return [interp, enclosing, bodyAst, referenced = std::move(referenced)]() -> GenPtr {
      auto shadowScope = enclosing->child();
      for (const auto& name : referenced) {
        if (auto local = enclosing->lookupLocal(name)) {
          shadowScope->declare(name, local->get());  // copy, don't alias
        }
      }
      Compiler c(*interp, shadowScope);
      return c.expr(bodyAst);
    };
  }

  GenPtr invoke(const NodePtr& n) {
    std::vector<GenPtr> args;
    for (std::size_t i = 1; i < n->kids.size(); ++i) args.push_back(expr(n->kids[i]));
    return makeInvokeGen(expr(n->kids[0]), std::move(args));
  }

  /// recv::name(args) — the native cut-through. `this::f(x)` calls f(x);
  /// anything else calls f(recv, x...), so host helpers registered with
  /// receiver-first conventions line up (Section IV's mixed-language
  /// chains).
  GenPtr nativeInvoke(const NodePtr& n) {
    const NodePtr& recv = n->kids[0];
    const bool isThis = recv->kind == Kind::Ident && recv->text == "this";
    GenPtr callee = identifier(n);  // the callee name's resolution rides on this node
    std::vector<GenPtr> args;
    if (!isThis) args.push_back(expr(recv));
    for (std::size_t i = 1; i < n->kids.size(); ++i) args.push_back(expr(n->kids[i]));
    return makeInvokeGen(std::move(callee), std::move(args));
  }

  Interpreter& interp_;
  ScopePtr scope_;
  const FrameLayout* layout_ = nullptr;  // set in frame mode only
  Frame* frame_ = nullptr;               // valid for the duration of one compile
};

// ---------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------

namespace {

/// Resolve Options::quotas into a governor, or null for an ungoverned
/// interpreter. Runs the admission gate — may throw IconError 815 (the
/// shed path).
std::shared_ptr<governor::ResourceGovernor> makeGovernor(const Interpreter::Options& options) {
  if (!options.quotas.any() && !options.governed) return nullptr;
  return governor::ResourceGovernor::create(options.quotas);
}

/// Root wrapper for every drive of a governed interpreter: each next()
/// runs with the interpreter's governor installed on the driving thread
/// and the governor's stop token ambient, so pipes created during the
/// drive link under the session's cancellation root. Destruction of the
/// wrapped tree also happens governed, so payload frees credit the heap
/// budget they were charged to.
class GovernedRootGen final : public Gen {
 public:
  GovernedRootGen(GenPtr inner, std::shared_ptr<governor::ResourceGovernor> gov)
      : inner_(std::move(inner)), gov_(std::move(gov)) {}

  ~GovernedRootGen() override {
    governor::ScopedGovernor governed(gov_);
    inner_.reset();
  }

  static GenPtr wrap(GenPtr inner, const std::shared_ptr<governor::ResourceGovernor>& gov) {
    if (gov == nullptr) return inner;
    return std::make_shared<GovernedRootGen>(std::move(inner), gov);
  }

 protected:
  bool doNext(Result& out) override {
    governor::ScopedGovernor governed(gov_);
    CancelScope scope(gov_->stopToken());
    return inner_->next(out);
  }
  void doRestart() override { inner_->restart(); }
  void forEachChild(Visit fn) override { fn(*inner_); }

 private:
  GenPtr inner_;
  std::shared_ptr<governor::ResourceGovernor> gov_;
};

}  // namespace

Interpreter::Interpreter(Options options)
    : options_(std::move(options)), governor_(makeGovernor(options_)),
      globals_(Scope::makeGlobal()) {}

Interpreter::~Interpreter() {
  // A pipe stored in a global (`p := |> e`) cycles back to the global
  // scope through its refresh factory, so neither would ever be
  // destroyed — and an undestroyed pipe never closes its queue, leaving
  // its producer blocked in put() for the global pool's destructor to
  // join at process exit (deadlock). Clearing the bindings breaks the
  // cycle: the pipe's destructor closes the queue and the producer
  // retires. Teardown runs governed so the session's heap credits land
  // on its own budget.
  std::optional<governor::ScopedGovernor> governed;
  if (governor_ != nullptr) governed.emplace(governor_);
  globals_->clear();
}

void Interpreter::load(const std::string& source) {
  loadProgram(frontend::parseProgram(source));
}

void Interpreter::loadProgram(const ast::NodePtr& program) {
  if (obs::metricsEnabled()) [[unlikely]] obs::KernelStats::get().interpLoads.add(1);
  ast::NodePtr prog = options_.normalize ? transform::normalizeProgram(program) : program;
  // Top-level statements are a drive: run them governed, with the
  // session's stop token ambient (mirrors GovernedRootGen).
  std::optional<governor::ScopedGovernor> governed;
  std::optional<CancelScope> scope;
  if (governor_ != nullptr) {
    governed.emplace(governor_);
    scope.emplace(governor_->stopToken());
  }
  for (const auto& item : prog->kids) {
    if (item->kind == Kind::Def) {
      globals_->declare(item->text, Value::proc(makeProcedure(item)));
    } else if (options_.backend == Backend::kVm) {
      vm::ChunkCompiler cc(*this, globals_);
      vm::VmGen::create(*this, cc.compileStmt(item), globals_, nullptr, nullptr)->next();
    } else {
      // Top-level statements run immediately, bounded, like Icon's
      // outermost level of iteration.
      Compiler stmtCompiler(*this, globals_);
      stmtCompiler.statement(item)->next();
    }
  }
}

GenPtr Interpreter::eval(const std::string& source) {
  if (obs::metricsEnabled()) [[unlikely]] obs::KernelStats::get().interpEvals.add(1);
  ast::NodePtr tree = frontend::parseExpression(source);
  if (options_.normalize) {
    transform::TempNames names;
    tree = transform::normalize(tree, names);
  }
  if (options_.backend == Backend::kVm) {
    vm::ChunkCompiler cc(*this, globals_);
    return GovernedRootGen::wrap(
        vm::VmGen::create(*this, cc.compileExpr(tree), globals_, nullptr, nullptr), governor_);
  }
  return GovernedRootGen::wrap(compileExpr(tree, globals_), governor_);
}

std::vector<Value> Interpreter::evalAll(const std::string& source) {
  return eval(source)->collect();
}

std::optional<Value> Interpreter::evalOne(const std::string& source) {
  return eval(source)->nextValue();
}

GenPtr Interpreter::call(const std::string& name, std::vector<Value> args) {
  auto var = globals_->lookup(name);
  Value f = var ? var->get() : Value::null();
  if (!f.isProc()) {
    if (const Value* builtin = builtins::lookupConst(name)) {
      f = *builtin;
    } else {
      throw errCallableExpected(name);
    }
  }
  return GovernedRootGen::wrap(f.proc()->invoke(std::move(args)), governor_);
}

void Interpreter::registerNative(const std::string& name, ProcPtr proc) {
  globals_->declare(name, Value::proc(std::move(proc)));
}

void Interpreter::defineGlobal(const std::string& name, Value v) {
  globals_->declare(name, std::move(v));
}

std::optional<Value> Interpreter::global(const std::string& name) const {
  auto var = globals_->lookup(name);
  if (!var) return std::nullopt;
  return var->get();
}

GenPtr Interpreter::compileExpr(const ast::NodePtr& node, const ScopePtr& scope) {
  Compiler c(*this, scope);
  return c.expr(node);
}

namespace {

/// VM analogue of Compiler::ProcState: resolve the layout and compile
/// the chunk once (under call_once — pool threads can race the first
/// invocation), then pool whole VmGen-rooted bodies exactly the way the
/// tree backend pools its body trees.
struct VmProcState {
  Interpreter* interp;
  std::string name;
  NodePtr params, body;
  std::once_flag once;
  FrameLayout layout;
  vm::ChunkPtr chunk;
  std::shared_ptr<BodyPool> pool = std::make_shared<BodyPool>();
};

ProcPtr vmMakeProc(Interpreter& interp, const NodePtr& def) {
  auto state = std::make_shared<VmProcState>();
  state->interp = &interp;
  state->name = def->text;
  state->params = def->kids[0];
  state->body = def->kids[1];
  return ProcImpl::create(def->text, [state](std::vector<Value> args) -> GenPtr {
    Interpreter& in = *state->interp;
    std::call_once(state->once, [&] {
      state->layout = resolve(state->params, state->body, *in.globalScope());
      vm::ChunkCompiler cc(in, in.globalScope(), &state->layout);
      state->chunk = cc.compileBody(state->name, state->body);
    });
    if (state->layout.poolable) {
      if (auto parked = state->pool->take()) {
        if (obs::metricsEnabled()) [[unlikely]] obs::VmStats::get().framesPooled.add(1);
        std::static_pointer_cast<BodyRootGen>(parked)->unpackArgs(args);
        return parked;
      }
    }
    auto frame = std::make_shared<Frame>(state->layout, in.globalScope());
    frame->rebind(args);
    auto root = BodyRootGen::create(
        vm::VmGen::create(in, state->chunk, in.globalScope(), &state->layout, frame));
    root->setUnpackClosure([frame](const std::vector<Value>& a) { frame->rebind(a); });
    if (state->layout.poolable) {
      // Weak for the same reason as the tree recycler above: the pool
      // must not keep itself alive through its parked bodies.
      root->setRecycler(
          [weakPool = std::weak_ptr<BodyPool>(state->pool)](std::shared_ptr<BodyRootGen> b) {
            if (auto pool = weakPool.lock()) pool->put(std::move(b));
          });
    }
    return root;
  });
}

}  // namespace

ProcPtr Interpreter::makeProcedure(const ast::NodePtr& def) {
  if (options_.backend == Backend::kVm) return vmMakeProc(*this, def);
  Compiler c(*this, globals_);
  return c.makeProc(def);
}

ProcPtr Interpreter::makeRecordConstructor(const ast::NodePtr& decl) {
  return Compiler::makeRecordConstructor(decl);
}

GenPtr Interpreter::compileSubtree(const ast::NodePtr& node, const ScopePtr& scope,
                                   const FrameLayout* layout, Frame* frame, bool statementPos) {
  if (layout != nullptr && frame != nullptr) {
    Compiler c(*this, scope, layout, frame);
    return statementPos ? c.statement(node) : c.expr(node);
  }
  Compiler c(*this, scope);
  return statementPos ? c.statement(node) : c.expr(node);
}

}  // namespace congen::interp
