// tool_flags_test.cpp — the tools' numeric flags are range-checked.
//
// congen-run, congen-serve and congen-loadgen parse every numeric flag
// with the one checked parser of src/tools/flags.hpp: garbage, a sign,
// trailing junk or an out-of-range value must exit 2 with the flag
// named — never parse to 0, wrap, or truncate into range. The tests
// drive the real binaries via popen(2), with the paths injected at
// build time (CONGEN_RUN_BIN, CONGEN_SERVE_BIN, CONGEN_LOADGEN_BIN).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult runTool(const char* binary, const std::string& args) {
  RunResult result;
  FILE* pipe = popen((std::string(binary) + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) result.output += buffer;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exitCode = WEXITSTATUS(status);
  return result;
}

RunResult runServe(const std::string& args) { return runTool(CONGEN_SERVE_BIN, args); }

TEST(ServeFlags, RejectsMalformedAndOutOfRangeValues) {
  const char* const bad[][2] = {
      {"--pipe-capacity", "abc"},     {"--pipe-capacity", "0"},
      {"--pipe-capacity", "1048577"}, {"--pipe-capacity", "2G"},
      {"--port", "70000"},            {"--port", "-1"},
      {"--port", " 80"},              {"--duration", "1.5"},
      {"--duration", "99999999999"},  {"--request-soft", "1e3"},
      {"--request-hard", ""},         {"--admission-sessions", "many"},
      {"--admission-heap", "99999999999999999999"},
      // K/M/G suffixes are for byte and fuel budgets only.
      {"--port", "1K"},               {"--duration", "1k"},
      {"--request-hard", "2M"},       {"--pipe-capacity", "1K"},
  };
  for (const auto& [flag, value] : bad) {
    const auto r = runServe(std::string(flag) + " '" + value + "' --port 0 --duration 1");
    EXPECT_EQ(r.exitCode, 2) << flag << " '" << value << "': " << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << "the error must name " << flag;
    EXPECT_EQ(r.output.find("listening"), std::string::npos) << "bad flags never bind";
  }
}

TEST(ServeFlags, AcceptsRangeEdgesAndEphemeralPort) {
  // --port 0 (ephemeral) is how benchmarks and tests start the daemon.
  const auto r = runServe(
      "--port 0 --duration 1 --pipe-capacity 1048576 --request-soft 0 "
      "--admission-sessions 0 --admission-heap 1G");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("congen-serve: listening on 127.0.0.1:"), std::string::npos) << r.output;
}

TEST(ServeFlags, UnknownOptionExitsTwo) {
  const auto r = runServe("--pipe-size 8 --port 0 --duration 1");
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("unknown option --pipe-size"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("listening"), std::string::npos) << "bad flags never bind";
}

TEST(RunFlags, RejectsMalformedAndOutOfRangeValues) {
  // Each case must exit 2 naming its flag before anything is evaluated.
  const char* const bad[][2] = {
      {"--max-heap=-1", "--max-heap"},         {"--max-heap=64Q", "--max-heap"},
      {"--max-fuel=", "--max-fuel"},           {"--max-depth=99999999999999999999", "--max-depth"},
      {"--timeout 1x", "--timeout"},           {"--timeout 0", "--timeout"},
      {"--timeout -5", "--timeout"},           {"--timeout 1K", "--timeout"},
      {"--supervise 1x 2", "--supervise"},     {"--supervise 0 2", "--supervise"},
      {"--supervise 5 2", "--supervise"},      {"--supervise 1 2y", "--supervise"},
  };
  for (const auto& [args, flag] : bad) {
    const auto r = runTool(CONGEN_RUN_BIN, std::string(args) + " -e 'write(\"ran\")'");
    EXPECT_EQ(r.exitCode, 2) << args << ": " << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << "the error must name " << flag;
    EXPECT_EQ(r.output.find("ran"), std::string::npos) << args << " ran the expression";
  }
}

TEST(RunFlags, AcceptsWellFormedValues) {
  const auto r = runTool(CONGEN_RUN_BIN,
                         "--max-heap=64M --max-fuel=0 --timeout 30 --supervise 20 30 "
                         "-e 'write(\"ran\")'");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("ran"), std::string::npos) << r.output;
}

TEST(RunFlags, RejectsArgumentsAfterExpressionOrRepl) {
  // Options go before -e/-i: anything after them exits 2 naming the
  // first stray argument, before the expression runs or the REPL reads.
  const char* const bad[][2] = {
      {"-e 'write(\"ran\")' --timeout 1x", "--timeout"},
      {"-e 'write(\"ran\")' --timeout 30", "--timeout"},
      {"-e 'write(\"ran\")' extra more", "extra"},
      {"-i stray < /dev/null", "stray"},
  };
  for (const auto& [args, stray] : bad) {
    const auto r = runTool(CONGEN_RUN_BIN, args);
    EXPECT_EQ(r.exitCode, 2) << args << ": " << r.output;
    EXPECT_NE(r.output.find(std::string("unexpected argument '") + stray + "'"), std::string::npos)
        << args << ": " << r.output;
    EXPECT_EQ(r.output.find("ran"), std::string::npos) << args << " ran the expression";
  }
}

TEST(RunFlags, ArgumentsAfterScriptAreMainArgs) {
  const std::string script = ::testing::TempDir() + "run_flags_main_args.jn";
  {
    std::ofstream out(script);
    out << "def main(args) { write(*args, \" \", args[1], \" \", args[2]); }\n";
  }
  const auto r = runTool(CONGEN_RUN_BIN, "'" + script + "' --timeout 1x");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("2 --timeout 1x"), std::string::npos) << r.output;
  std::remove(script.c_str());
}

TEST(LoadgenFlags, RejectsMalformedAndOutOfRangeValues) {
  // Rejected before any connection is tried: nothing listens on port 9.
  const char* const bad[][2] = {
      {"--port", "70000"},      {"--port", "0"},          {"--port", "-1"},
      {"--port", "80x"},        {"--sessions", "0"},      {"--sessions", "4097"},
      {"--sessions", "many"},   {"--duration", "0"},      {"--duration", "1.5"},
      {"--think", "-3"},        {"--iters-per-session", "2k"},
  };
  for (const auto& [flag, value] : bad) {
    const auto r = runTool(CONGEN_LOADGEN_BIN, std::string(flag) + " '" + value +
                                                   "' --port 9 --sessions 1 --duration 1");
    EXPECT_EQ(r.exitCode, 2) << flag << " '" << value << "': " << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << "the error must name " << flag;
  }
}

}  // namespace
