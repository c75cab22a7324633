// conformance_test.cpp — differential testing of the three execution
// paths. Every shipped example (examples/scripts/*.jn and
// examples/embedded/*.ccg) runs through the tree-walking interpreter,
// the bytecode VM, AND the congenc-emitted C++ module, and the result
// sequences must be byte-identical. The paper's premise (Section VI) is
// that the interactive and compiled harnesses execute the same
// semantics; this suite keeps the three from drifting silently.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "meta/annotations.hpp"
#include "runtime/collections.hpp"

// Build-time emitted modules, one per example (see CMakeLists.txt).
#include "conf_errors.hpp"
#include "conf_mapreduce.hpp"
#include "conf_nqueens.hpp"
#include "conf_quota.hpp"
#include "conf_retry.hpp"
#include "conf_reversible.hpp"
#include "conf_timeout.hpp"
#include "conf_wordcount.hpp"
#include "conf_wordfreq.hpp"
#include "confembed_logstats_embedded.hpp"
#include "confembed_wordcount_embedded.hpp"

namespace congen {
namespace {

const std::string kRoot = CONGEN_SOURCE_DIR;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Value emptyArgs() { return Value::list(ListImpl::create()); }

/// Drain main(args=[]) through the interpreter, capturing stdout.
std::string interpMainOutput(const std::string& scriptPath, interp::Backend backend) {
  const std::string src = readFile(scriptPath);
  ::testing::internal::CaptureStdout();
  {
    interp::Interpreter::Options opts;
    opts.backend = backend;
    interp::Interpreter interp{opts};
    interp.load(src);
    auto gen = interp.call("main", {emptyArgs()});
    while (gen->nextValue()) {
    }
  }
  return ::testing::internal::GetCapturedStdout();
}

/// Drain main(args=[]) through an emitted module, capturing stdout.
/// Construction runs the script's top-level statements, matching load().
template <class Module>
std::string emittedMainOutput() {
  ::testing::internal::CaptureStdout();
  {
    Module mod;
    auto gen = mod.call("main", {emptyArgs()});
    while (gen->nextValue()) {
    }
  }
  return ::testing::internal::GetCapturedStdout();
}

template <class Module>
void expectScriptConformance(const std::string& name) {
  const std::string path = kRoot + "/examples/scripts/" + name + ".jn";
  const std::string viaTree = interpMainOutput(path, interp::Backend::kTree);
  const std::string viaVm = interpMainOutput(path, interp::Backend::kVm);
  const std::string viaEmitted = emittedMainOutput<Module>();
  EXPECT_FALSE(viaTree.empty()) << name << " produced no output";
  EXPECT_EQ(viaTree, viaVm) << name << ": tree and VM backends disagree";
  EXPECT_EQ(viaTree, viaEmitted) << name << ": interpreter and emitted paths disagree";
}

TEST(ConformanceScripts, Errors) { expectScriptConformance<Conf_errors>("errors"); }
TEST(ConformanceScripts, Mapreduce) { expectScriptConformance<Conf_mapreduce>("mapreduce"); }
TEST(ConformanceScripts, Nqueens) { expectScriptConformance<Conf_nqueens>("nqueens"); }
TEST(ConformanceScripts, Quota) { expectScriptConformance<Conf_quota>("quota"); }
TEST(ConformanceScripts, Retry) { expectScriptConformance<Conf_retry>("retry"); }
TEST(ConformanceScripts, Reversible) {
  expectScriptConformance<Conf_reversible>("reversible");
  // Icon's output: reversible effects are undone on resumption only.
  EXPECT_EQ(interpMainOutput(kRoot + "/examples/scripts/reversible.jn", interp::Backend::kTree),
            "1\n2\n3\n4\nwhile: 3\nconj: 6\nconj: 7\nafter conj: 1\n"
            "suspend: 1\nsuspend: 1\nsuspend: 1\nafter suspend: 0\n"
            "bounded call: 1\nafter bounded call: 1\nswap: ba\nswap undone: ba\n"
            "moved to 5\nat 3\nat 5\nat 7\ntab undone: 1\n"
            "step: a 2\nafter step: 1\nbounded step: a 2\n");
}
TEST(ConformanceScripts, Timeout) { expectScriptConformance<Conf_timeout>("timeout"); }
TEST(ConformanceScripts, Wordcount) { expectScriptConformance<Conf_wordcount>("wordcount"); }
TEST(ConformanceScripts, Wordfreq) { expectScriptConformance<Conf_wordfreq>("wordfreq"); }

/// The suite must cover every shipped example: a new .jn or .ccg file
/// fails here until it is added to the conformance corpus above.
TEST(ConformanceCorpus, CoversEveryShippedExample) {
  std::set<std::string> scripts, embedded;
  for (const auto& e : std::filesystem::directory_iterator(kRoot + "/examples/scripts")) {
    if (e.path().extension() == ".jn") scripts.insert(e.path().stem().string());
  }
  for (const auto& e : std::filesystem::directory_iterator(kRoot + "/examples/embedded")) {
    if (e.path().extension() == ".ccg") embedded.insert(e.path().stem().string());
  }
  EXPECT_EQ(scripts, (std::set<std::string>{"errors", "mapreduce", "nqueens", "quota", "retry",
                                            "reversible", "timeout", "wordcount", "wordfreq"}))
      << "new script: add it to tests/conformance";
  EXPECT_EQ(embedded, (std::set<std::string>{"logstats_embedded", "wordcount_embedded"}))
      << "new embedded example: add it to tests/conformance";
}

std::string regionText(const std::string& src, const meta::Region& r) {
  return src.substr(r.innerBegin, r.innerEnd - r.innerBegin);
}

ListPtr wordcountLines() {
  auto lines = ListImpl::create();
  lines->put(Value::string("the quick brown fox jumps over the lazy dog"));
  lines->put(Value::string("concurrent generators embed goal directed evaluation"));
  lines->put(Value::string("pipes are multithreaded generator proxies"));
  return lines;
}

std::vector<std::string> drainImages(const GenPtr& gen) {
  std::vector<std::string> images;
  while (auto v = gen->nextValue()) images.push_back(v->toDisplayString());
  return images;
}

TEST(ConformanceEmbedded, WordcountPipelineStreamAgrees) {
  const std::string src = readFile(kRoot + "/examples/embedded/wordcount_embedded.ccg");
  const auto regions = meta::parseAnnotations(src);
  ASSERT_EQ(regions.size(), 2u);

  ConfEmbed_wordcount_embedded mod;
  mod.set("lines", Value::list(wordcountLines()));
  const auto viaEmitted = drainImages(mod.expr_0());

  // The definition region's generators must agree too (hashWords is the
  // map-reduce mapper of the shipped example). The interpreter side is
  // goal-directed invocation over every line; mirror that cross-product
  // explicitly on the emitted side.
  std::vector<std::string> emittedHash;
  for (auto lines = mod.call("readLines", {}); auto line = lines->nextValue();) {
    const auto per = drainImages(mod.call("hashWords", {*line}));
    emittedHash.insert(emittedHash.end(), per.begin(), per.end());
  }

  for (const auto backend : {interp::Backend::kTree, interp::Backend::kVm}) {
    SCOPED_TRACE(backend == interp::Backend::kVm ? "vm backend" : "tree backend");
    interp::Interpreter::Options opts;
    opts.backend = backend;
    interp::Interpreter interp{opts};
    interp.defineGlobal("lines", Value::list(wordcountLines()));
    interp.load(regionText(src, regions[0]));
    const auto viaInterp = drainImages(interp.eval(regionText(src, regions[1])));

    EXPECT_FALSE(viaInterp.empty());
    EXPECT_EQ(viaInterp, viaEmitted) << "pipe-expression streams disagree";
    EXPECT_EQ(drainImages(interp.eval("hashWords(readLines())")), emittedHash);
  }
}

ListPtr logstatsLog() {
  auto log = ListImpl::create();
  for (const char* line : {"INFO service=auth ms=12", "WARN service=db ms=140",
                           "ERROR service=db ms=480", "INFO service=auth ms=9",
                           "ERROR service=auth ms=77", "INFO service=web ms=33"}) {
    log->put(Value::string(line));
  }
  return log;
}

TEST(ConformanceEmbedded, LogstatsStreamsAgree) {
  const std::string src = readFile(kRoot + "/examples/embedded/logstats_embedded.ccg");
  const auto regions = meta::parseAnnotations(src);
  ASSERT_EQ(regions.size(), 1u);

  ConfEmbed_logstats_embedded mod;
  mod.set("log", Value::list(logstatsLog()));
  const auto emittedEntries = drainImages(mod.call("entries", {}));
  std::vector<std::string> emittedSev;
  for (auto gen = mod.call("entries", {}); auto e = gen->nextValue();) {
    emittedSev.push_back(mod.call("severity", {*e})->nextValue()->toDisplayString());
  }

  for (const auto backend : {interp::Backend::kTree, interp::Backend::kVm}) {
    SCOPED_TRACE(backend == interp::Backend::kVm ? "vm backend" : "tree backend");
    interp::Interpreter::Options opts;
    opts.backend = backend;
    interp::Interpreter interp{opts};
    interp.defineGlobal("log", Value::list(logstatsLog()));
    interp.load(regionText(src, regions[0]));

    // Parsed-entry streams (records, scanning) must agree element-wise,
    // and so must the derived severity stream.
    const auto interpEntries = drainImages(interp.eval("entries()"));
    EXPECT_FALSE(interpEntries.empty());
    EXPECT_EQ(interpEntries, emittedEntries);

    std::vector<std::string> interpSev;
    for (auto gen = interp.eval("entries()"); auto e = gen->nextValue();) {
      interpSev.push_back(interp.call("severity", {*e})->nextValue()->toDisplayString());
    }
    EXPECT_EQ(interpSev, emittedSev);

    for (const char* svc : {"auth", "db", "web", "absent"}) {
      auto viaInterp = interp.call("worstLatency", {Value::string(svc)})->nextValue();
      auto viaEmitted = mod.call("worstLatency", {Value::string(svc)})->nextValue();
      ASSERT_EQ(viaInterp.has_value(), viaEmitted.has_value()) << svc;
      if (viaInterp) {
        EXPECT_EQ(viaInterp->toDisplayString(), viaEmitted->toDisplayString()) << svc;
      }
    }
  }
}

}  // namespace
}  // namespace congen
