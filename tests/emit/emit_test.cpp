// emit_test.cpp — golden-file tests for the C++ emitter (Fig. 5
// analogue). Each corpus entry's full emitted output is compared
// byte-for-byte against a committed tests/emit/golden/<name>.golden
// file, so any change to the generated shape shows up as a reviewable
// diff instead of slipping past substring checks.
//
// To regenerate after an intentional emitter change:
//   ./emit_test --update-golden          (or CONGEN_UPDATE_GOLDEN=1)
// then review and commit the .golden diffs.
#include "emit/emitter.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "frontend/parser.hpp"

namespace congen::emit {
namespace {

bool g_updateGolden = false;

std::string goldenPath(const std::string& name) {
  return std::string(CONGEN_SOURCE_DIR) + "/tests/emit/golden/" + name + ".golden";
}

void expectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (g_updateGolden) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with: emit_test --update-golden";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "emitter output changed for corpus '" << name
      << "'. If intentional, regenerate with: emit_test --update-golden";
}

std::string emitDefs(const std::string& src, EmitOptions opts = {}) {
  return emitModule(frontend::parseProgram(src), opts);
}

TEST(EmitGolden, BasicLayout) {
  expectMatchesGolden("basic_layout", emitDefs("def f(a) { return a; }"));
}

TEST(EmitGolden, CustomModuleName) {
  EmitOptions opts;
  opts.moduleName = "WordCount";
  expectMatchesGolden("custom_module_name", emitDefs("def f() { }", opts));
}

TEST(EmitGolden, PipeKnobs) {
  // The pipe capacity surfaces as a module field and flows into every
  // emitted makePipeCreateGen call.
  EmitOptions opts;
  opts.pipeCapacity = 256;
  expectMatchesGolden("pipe_knobs", emitDefs("def f(e) { suspend ! (|> !e); }", opts));
}

TEST(EmitGolden, Fig5SpawnMap) {
  // The example of Section V.D / Fig. 5:
  //   def spawnMap(f, chunk) { suspend ! (|> f(!chunk)); }
  // Locks down the method-body cache protocol, reified parameters, the
  // unpack closure, and the shadowed co-expression environment copy.
  expectMatchesGolden("fig5_spawn_map",
                      emitDefs("def spawnMap(f, chunk) { suspend ! (|> f(!chunk)); }"));
}

TEST(EmitGolden, NormalizationTemporaries) {
  expectMatchesGolden("normalization_temporaries", emitDefs("def h(x) { return f(g(x)); }"));
}

TEST(EmitGolden, IdentifierResolution) {
  expectMatchesGolden("identifier_resolution", emitDefs(R"(
    def callee() { return 1; }
    def caller(p) {
      local l;
      l := p + callee() + host + sqrt(4);
      return l;
    }
  )"));
}

TEST(EmitGolden, AssignedUndeclaredBecomesLocal) {
  expectMatchesGolden("assigned_undeclared_local", emitDefs("def f() { acc := 1; return acc; }"));
}

TEST(EmitGolden, OperatorLowering) {
  expectMatchesGolden("operator_lowering", emitDefs(R"(
    def ops(a, b) {
      suspend a + b;
      suspend a & b;
      suspend a | b;
      suspend a to b;
      suspend a < b;
      suspend [a, b];
      suspend not a;
    }
  )"));
}

TEST(EmitGolden, ControlLowering) {
  expectMatchesGolden("control_lowering", emitDefs(R"(
    def ctl(n) {
      local i;
      every i := 1 to n do suspend i;
      while n > 0 do n -:= 1;
      if n == 0 then return 0; else fail;
    }
  )"));
}

TEST(EmitGolden, BigLiterals) {
  expectMatchesGolden("big_literals", emitDefs(R"(
    def f() { return 123456789012345678901234567890; }
    def g() { return 42; }
  )"));
}

TEST(EmitGolden, CoExprShared) {
  expectMatchesGolden("coexpr_shared", emitDefs("def f(x) { return @ <> (x + 1); }"));
}

TEST(EmitGolden, CoExprShadowed) {
  expectMatchesGolden("coexpr_shadowed", emitDefs("def f(x) { return @ |<> (x + 1); }"));
}

TEST(EmitGolden, ExprRegions) {
  std::vector<ast::NodePtr> exprs;
  exprs.push_back(frontend::parseExpression("1 to 3"));
  exprs.push_back(frontend::parseExpression("f(9)"));
  expectMatchesGolden("expr_regions",
                      emitModuleWithExprs(frontend::parseProgram("def f(x) { return x; }"), exprs,
                                          EmitOptions{}));
}

TEST(EmitGolden, TopLevelStatements) {
  expectMatchesGolden("top_level_statements", emitDefs("x := 42;"));
}

TEST(EmitGolden, ScanningLowering) {
  expectMatchesGolden("scanning_lowering", emitDefs(R"(
    def fields(s) {
      local w;
      s ? while not pos(0) do { suspend tab(upto(",") | 0); move(1); };
    }
  )"));
}

TEST(EmitGolden, KeywordVariables) {
  expectMatchesGolden("keyword_variables",
                      emitDefs("def f(s) { return s ? (&pos := 2 & &subject); }"));
}

TEST(EmitGolden, ErrorKeywords) {
  expectMatchesGolden("error_keywords", emitDefs(R"(
    def safediv(a, b) {
      local r;
      &error := 1;
      if r := a / b then { &error := 0; return r; };
      write(&errornumber, ": ", &errorvalue);
      errorclear();
    }
  )"));
}

TEST(EmitGolden, RecordsCaseAndReversibles) {
  expectMatchesGolden("records_case_reversibles", emitDefs(R"(
    record point(x, y)
    def f(p, a, b) {
      a <- p.x;
      a <-> b;
      case p.y of { 1: return a; default: fail; }
    }
  )"));
}

TEST(EmitGolden, SliceAndNullTests) {
  expectMatchesGolden("slice_null_tests", emitDefs("def f(s) { return \\s | /s | s[2:4]; }"));
}

// Structural invariants that are not snapshot comparisons.

TEST(EmitDeterminism, SameInputSameOutput) {
  const std::string src = "def f(a) { suspend ! (|> g(!a)); }";
  EXPECT_EQ(emitDefs(src), emitDefs(src));
}

TEST(EmitErrors, NestedDefsRejected) {
  // Rejected by the frontend (SyntaxError) or the emitter (EmitError) —
  // either way, nested definitions never silently miscompile.
  EXPECT_ANY_THROW(emitDefs("def outer() { def inner() { } }"));
}

}  // namespace
}  // namespace congen::emit

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") congen::emit::g_updateGolden = true;
  }
  if (std::getenv("CONGEN_UPDATE_GOLDEN") != nullptr) congen::emit::g_updateGolden = true;
  return RUN_ALL_TESTS();
}
