// driver.cpp — perfbench's measuring process.
//
//   perfbench-driver --workload wc-light|scripts|serve --seed N
//                    --seconds S [--trace 0|1] [--root DIR]
//                    [--serve-bin PATH] [--trace-out FILE]
//
// Starts the workload's system cold and times its first op (setup_s),
// then times warm ops for S seconds. The last line of standard output is
// one flat JSON object (see Result); run.py starts these processes and
// aggregates them. The exit code is 0 only when every op was checked
// correct.

#include <cstdlib>
#include <iostream>
#include <thread>

#include "concur/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void recordProcessStats(const Args& args, Result& out) {
  out.num("pool_threads_total", static_cast<double>(congen::ThreadPool::global().threadsCreated()));
  // Untraced runs must measure the metrics-off fast path: nothing may
  // have switched the registry on in this process.
  if (!args.trace) {
    const bool touched = congen::obs::metricsEnabled() || registryTouched();
    out.num("metrics_touched", touched ? 1 : 0);
    if (touched) out.fail("metrics were enabled in an untraced run");
  }
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench-driver --workload wc-light|scripts|serve --seed N"
               " --seconds S [--trace 0|1] [--root DIR] [--serve-bin PATH]"
               " [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--serve-bin") {
      args.serveBin = value;
    } else if (flag == "--trace-out") {
      args.traceOut = value;
    } else {
      return usage();
    }
  }

  if (!(args.seconds > 0)) return usage();

  Result out;
  out.str("workload", args.workload);
  out.num("seed", static_cast<double>(args.seed));
  out.num("nproc", std::thread::hardware_concurrency());
  out.str("compiler", __VERSION__);
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.str("cpu_model", cpuModel());
  try {
    if (args.workload == "wc-light") {
      runWcLight(args, out);
    } else if (args.workload == "scripts") {
      runScripts(args, out);
    } else if (args.workload == "serve") {
      runServe(args, out);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    out.fail(std::string("uncaught: ") + e.what());
  }
  std::cout << out.json() << std::endl;
  return out.ok() ? 0 : 1;
}
