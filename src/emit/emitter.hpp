// emitter.hpp — translation of Junicon to C++ over the kernel API.
//
// The compiled path of the paper's harness: where Fig. 5 shows `spawnMap`
// translated into Java IconIterator constructors, emitModule() produces
// the same shape in C++ — a module struct whose methods build the
// composed iterator trees, with reified parameters, unpack closures,
// method-body caching, and synthesized co-expressions that copy their
// referenced locals (the `chunk_s_r` shadowing of Fig. 5).
//
// Contract of the generated code:
//  * It only needs `#include <congen.hpp>` (the umbrella header).
//  * Each translated program becomes `struct <ModuleName> { ... }`.
//  * Procedure definitions become `make_<name>()` factories, registered
//    into a globals map in the constructor; top-level statements run in
//    the constructor, bounded, in order.
//  * Host code exchanges data through `set(name, value)` / `get(name)`
//    and obtains generators from `call("name", {...})` or the emitted
//    `expr_N()` methods for expression-level regions.
#pragma once

#include <string>
#include <vector>

#include "frontend/ast.hpp"

namespace congen::emit {

struct EmitOptions {
  std::string moduleName = "CongenModule";
  std::size_t pipeCapacity = 1024;
  /// Normalize (Section V.A flattening) before emission. On by default;
  /// emission requires it for faithful Fig. 5 output shape.
  bool normalize = true;
  /// Names known to be provided by the host via set() — never treated as
  /// implicit locals.
  std::vector<std::string> hostGlobals;
};

/// Emit a full module struct for a program (defs + top-level statements).
std::string emitModule(const ast::NodePtr& program, const EmitOptions& opts);

/// Emit a module that additionally exposes expression regions as
/// `congen::GenPtr expr_I()` methods, in order.
std::string emitModuleWithExprs(const ast::NodePtr& program,
                                const std::vector<ast::NodePtr>& exprRegions,
                                const EmitOptions& opts);

/// Translation failure (unsupported construct at emit level).
class EmitError : public std::runtime_error {
 public:
  explicit EmitError(const std::string& message) : std::runtime_error(message) {}
};

}  // namespace congen::emit
