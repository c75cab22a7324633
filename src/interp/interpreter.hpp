// interpreter.hpp — tree-walking evaluation of the Junicon dialect.
//
// The interactive path of the paper's harness (Section VI): where the
// Java backend *emits* source, the interpreter builds the same kernel
// iterator trees directly from the (normalized) AST and runs them. Host
// C++ functions are registered as natives and reached via the :: cut-
// through, giving the mixed-language story without a compile step.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "interp/scope.hpp"
#include "kernel/gen.hpp"
#include "runtime/governor.hpp"
#include "runtime/proc.hpp"

namespace congen {
class ThreadPool;
}

namespace congen::interp {

class Frame;
struct FrameLayout;

/// Execution backend for procedure bodies and eval'd expressions.
///  - kTree: the original kernel-iterator trees (one Gen per AST node);
///  - kVm:   resolved ASTs compile to bytecode chunks (interp/chunk.hpp)
///    executed by a resumable stack machine (interp/vm.hpp). Constructs
///    the machine does not flatten (scanning, case, co-expression
///    creation, ...) run as embedded tree subtrees, so the two backends
///    share semantics where they share code and are differentially
///    tested where they don't (tests/interp, tests/conformance).
enum class Backend : std::uint8_t { kTree, kVm };

/// Default backend for new Interpreters: CONGEN_BACKEND=vm|tree if set
/// (read once per process), else kTree.
[[nodiscard]] Backend defaultBackend();

class Interpreter {
 public:
  /// Options mostly matter to benchmarks (pipe sizing / pool choice).
  struct Options {
    std::size_t pipeCapacity = 1024;
    bool normalize = true;  // run the Section V.A flattening pass first
    Backend backend = defaultBackend();
    /// Hard resource budgets (0 = unlimited). Any non-zero budget gives
    /// this interpreter a ResourceGovernor: the process admission gate
    /// runs at construction (throws IconError 815 when shedding), and
    /// every drive — top-level statements, eval'd generators, call() —
    /// runs governed, on whichever thread it happens (pipe producers
    /// re-install the creator's governor). Exhaustion raises the
    /// catchable 81x errQuotaExceeded family.
    governor::Limits quotas{};
    /// Create a (limitless) governor even when quotas are all-zero, so
    /// the session has a StopSource root and can be supervised
    /// (congen-run --supervise without --max-*).
    bool governed = false;
  };

  Interpreter() : Interpreter(Options{}) {}
  explicit Interpreter(Options options);
  ~Interpreter();

  /// Parse and load a program: procedure definitions become globals; any
  /// top-level statements execute immediately (bounded).
  void load(const std::string& source);

  /// Load a pre-parsed program.
  void loadProgram(const ast::NodePtr& program);

  /// Parse an expression and return its generator over the global scope.
  [[nodiscard]] GenPtr eval(const std::string& source);

  /// Evaluate and collect every result value.
  std::vector<Value> evalAll(const std::string& source);

  /// First result of an expression (nullopt = failure).
  std::optional<Value> evalOne(const std::string& source);

  /// Call a loaded procedure by name.
  [[nodiscard]] GenPtr call(const std::string& name, std::vector<Value> args);

  /// Register a host-side function, reachable both as a plain name and
  /// through the :: native cut-through.
  void registerNative(const std::string& name, ProcPtr proc);
  /// Bind a global value (e.g. the host's data for the embedded region).
  void defineGlobal(const std::string& name, Value v);
  [[nodiscard]] std::optional<Value> global(const std::string& name) const;

  /// Compile an AST expression over a scope (exposed for the transform
  /// equivalence tests). Always the tree backend.
  [[nodiscard]] GenPtr compileExpr(const ast::NodePtr& node, const ScopePtr& scope);

  /// Build a procedure value from a Def node under the configured
  /// backend (the chunk compiler uses this for nested definitions).
  [[nodiscard]] ProcPtr makeProcedure(const ast::NodePtr& def);

  /// `record name(f1, ..., fn)` constructor procedure (backend-neutral).
  [[nodiscard]] static ProcPtr makeRecordConstructor(const ast::NodePtr& decl);

  /// Tree-compile one subtree in a frame or scope context — the VM's
  /// escape hatch for constructs it embeds rather than flattens. With a
  /// layout/frame pair the frame-mode tree compiler runs (slot-resolved
  /// identifiers); otherwise names resolve against `scope`. `frame` must
  /// outlive the returned generator.
  [[nodiscard]] GenPtr compileSubtree(const ast::NodePtr& node, const ScopePtr& scope,
                                      const FrameLayout* layout, Frame* frame, bool statementPos);

  [[nodiscard]] const ScopePtr& globalScope() const noexcept { return globals_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// This interpreter's resource governor — null when Options::quotas is
  /// all-zero (an ungoverned interpreter pays no governance cost at
  /// all). congen-run hands it to the Supervisor for --supervise.
  [[nodiscard]] const std::shared_ptr<governor::ResourceGovernor>& resourceGovernor()
      const noexcept {
    return governor_;
  }

 private:
  friend class Compiler;

  Options options_;
  std::shared_ptr<governor::ResourceGovernor> governor_;
  ScopePtr globals_;
};

}  // namespace congen::interp
