// serve_flags_test.cpp — congen-serve's numeric flags are range-checked.
//
// Every numeric flag goes through one checked parser in the tool's
// main(): garbage, trailing junk or an out-of-range value must exit 2
// with the flag named — never parse to 0 or truncate into range. This
// test drives the real binary via popen(2), with the path injected at
// build time (CONGEN_SERVE_BIN).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult runServe(const std::string& args) {
  RunResult result;
  FILE* pipe = popen((std::string(CONGEN_SERVE_BIN) + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) result.output += buffer;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exitCode = WEXITSTATUS(status);
  return result;
}

TEST(ServeFlags, RejectsMalformedAndOutOfRangeValues) {
  const char* const bad[][2] = {
      {"--pipe-capacity", "abc"},     {"--pipe-capacity", "0"},
      {"--pipe-capacity", "1048577"}, {"--pipe-capacity", "2G"},
      {"--pipe-batch", "0"},          {"--pipe-batch", "8x"},
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
      "--port 0 --duration 1 --pipe-capacity 1048576 --pipe-batch 1 --request-soft 0 "
      "--admission-sessions 0 --admission-heap 1G");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("congen-serve: listening on 127.0.0.1:"), std::string::npos) << r.output;
}

}  // namespace
