// congen-run — script runner and REPL for the Junicon dialect.
//
// The interactive path of the paper's harness (Section VI): load .jn
// scripts (definitions + top-level statements), call main() if defined,
// or evaluate expressions interactively, printing each generated result.
//
// Usage:
//   congen-run <script.jn> [args...]    run a script (calls main(args))
//   congen-run -e "<expr>"              evaluate one expression
//   congen-run -i                       interactive REPL
//   (options go first: an argument after -e "<expr>" or -i exits 2)
//   congen-run --trace ...              print iterator-protocol events
//                                       (the paper's future-work
//                                       monitoring, Section IX)
//   congen-run --timeout <sec> ...      watchdog: if the run exceeds the
//                                       budget, dump every live pipe's
//                                       queue state to stderr and exit 3
//                                       (a hung pipeline fails fast with
//                                       diagnostics instead of eating a
//                                       CI job limit)
//   congen-run --stats ...              enable the metrics registry and
//                                       print a human-readable snapshot
//                                       to stderr when the run ends
//   congen-run --metrics-json <f> ...   enable metrics and write the
//                                       snapshot as JSON to <f> at exit
//   congen-run --trace-out <f> ...      collect a Chrome-trace-format
//                                       JSON of the run (per-thread
//                                       generator spans) into <f>
//   congen-run --backend=vm|tree ...    pick the execution backend
//                                       (default: CONGEN_BACKEND env,
//                                       else the tree walker)
//   congen-run --max-heap=64M ...       resource quotas (K/M/G suffixes
//                                       where bytes make sense):
//                                       --max-heap, --max-fuel,
//                                       --max-pipes, --max-coexprs,
//                                       --max-pipe-depth, --max-depth.
//                                       Exhaustion raises the catchable
//                                       81x errQuotaExceeded family; an
//                                       uncaught trip exits 1 with the
//                                       typed error on stderr.
//   congen-run --supervise <s> <h> ...  cooperative watchdog over the
//                                       governed session: soft-cancel
//                                       after <s> seconds, diagnostics +
//                                       hard teardown after <h>
//
// Numeric values are plain decimals (K/M/G suffixes on the --max-*
// budgets only), range-checked by tools/flags.hpp: garbage, a sign,
// trailing junk or an out-of-range value exits 2 naming the flag.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "concur/pipe.hpp"
#include "frontend/lexer.hpp"
#include "interp/interpreter.hpp"
#include "kernel/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_adapter.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "tools/flags.hpp"

namespace {

namespace tools = congen::tools;

constexpr std::size_t kReplResultLimit = 64;  // guard against infinite generators

void printResults(congen::GenPtr gen, std::size_t limit) {
  std::size_t count = 0;
  while (auto v = gen->nextValue()) {
    std::cout << "  " << v->image() << "\n";
    if (++count >= limit) {
      std::cout << "  ... (stopped after " << limit << " results)\n";
      return;
    }
  }
  if (count == 0) std::cout << "  (failure)\n";
}

int repl(congen::interp::Interpreter& interp) {
  std::cout << "congen REPL — goal-directed expressions; :quit to exit,\n"
               ":load <file> to load definitions.\n";
  std::string line;
  while (std::cout << "]=> " && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ":quit" || line == ":q") break;
    try {
      if (line.rfind(":load ", 0) == 0) {
        std::ifstream in(line.substr(6));
        if (!in) {
          std::cout << "cannot open " << line.substr(6) << "\n";
          continue;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        interp.load(buffer.str());
        std::cout << "  loaded.\n";
        continue;
      }
      // Definitions vs expressions: try the expression grammar first.
      try {
        printResults(interp.eval(line), kReplResultLimit);
      } catch (const congen::frontend::SyntaxError&) {
        interp.load(line);
        std::cout << "  defined.\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  return 0;
}

/// Observability options collected from the prefix flags; the snapshot /
/// trace emission happens once, after the run body finishes (on every
/// path, including errors — a failing script's metrics are exactly the
/// interesting ones).
struct ObsOptions {
  bool stats = false;
  std::string metricsJsonPath;
  std::string traceOutPath;
};

void emitObservability(const ObsOptions& obs) {
  if (obs.stats) {
    congen::obs::Registry::global().snapshot().writeText(std::cerr);
  }
  if (!obs.metricsJsonPath.empty()) {
    std::ofstream out(obs.metricsJsonPath);
    if (!out) {
      std::cerr << "congen-run: cannot write " << obs.metricsJsonPath << "\n";
    } else {
      congen::obs::Registry::global().snapshot().writeJson(out);
    }
  }
  if (!obs.traceOutPath.empty()) {
    std::ofstream out(obs.traceOutPath);
    if (!out) {
      std::cerr << "congen-run: cannot write " << obs.traceOutPath << "\n";
    } else {
      congen::obs::writeTraceJson(out);
    }
    congen::obs::removeChromeTraceHook();
  }
}

int run(int argc, char** argv, congen::interp::Interpreter& interp) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if ((mode == "-e" && argc >= 3) || mode == "-i") {
    const int used = mode == "-e" ? 3 : 2;
    if (argc > used) {
      std::cerr << "congen-run: unexpected argument '" << argv[used] << "' after " << mode
                << "\n";
      return 2;
    }
    if (mode == "-i") return repl(interp);
    printResults(interp.eval(argv[2]), kReplResultLimit);
    return 0;
  }
  if (argc >= 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "congen-run: cannot open " << argv[1] << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    interp.load(buffer.str());
    if (interp.global("main") && interp.global("main")->isProc()) {
      auto args = congen::ListImpl::create();
      for (int i = 2; i < argc; ++i) args->put(congen::Value::string(argv[i]));
      interp.call("main", {congen::Value::list(args)})->last();
    }
    return 0;
  }
  return repl(interp);
}

}  // namespace

int main(int argc, char** argv) {
  congen::interp::Interpreter::Options options;
  ObsOptions obs;
  std::uint64_t timeoutSeconds = 0;
  std::uint64_t superviseSoftSec = 0;
  std::uint64_t superviseHardSec = 0;
  // Prefix options, in any order: --timeout <sec> arms the watchdog,
  // --trace enables iterator-protocol monitoring, --stats /
  // --metrics-json / --trace-out wire the metrics registry and the
  // structured trace sink, --backend= picks the execution backend.
  for (;;) {
    if (argc >= 2 && std::string(argv[1]).rfind("--backend=", 0) == 0) {
      const std::string which = std::string(argv[1]).substr(10);
      if (which == "vm") {
        options.backend = congen::interp::Backend::kVm;
      } else if (which == "tree") {
        options.backend = congen::interp::Backend::kTree;
      } else {
        std::cerr << "congen-run: unknown backend '" << which << "' (want vm or tree)\n";
        return 2;
      }
      --argc;
      ++argv;
      continue;
    }
    if (argc >= 3 && std::string(argv[1]) == "--timeout") {
      timeoutSeconds =
          tools::numberOrExit("congen-run", "--timeout", argv[2], 1, tools::kMaxSeconds);
      argc -= 2;
      argv += 2;
      continue;
    }
    if (argc >= 2 && std::string(argv[1]) == "--trace") {
      congen::trace::install([](const congen::trace::Event& e) {
        if (e.kind != congen::trace::EventKind::Resume) {
          std::cerr << congen::trace::format(e) << "\n";
        }
      });
      --argc;
      ++argv;
      continue;
    }
    if (argc >= 2 && std::string(argv[1]) == "--stats") {
      obs.stats = true;
      congen::obs::enableMetrics();
      --argc;
      ++argv;
      continue;
    }
    if (argc >= 3 && std::string(argv[1]) == "--metrics-json") {
      obs.metricsJsonPath = argv[2];
      congen::obs::enableMetrics();
      argc -= 2;
      argv += 2;
      continue;
    }
    if (argc >= 3 && std::string(argv[1]) == "--trace-out") {
      obs.traceOutPath = argv[2];
      congen::obs::installChromeTraceHook();
      argc -= 2;
      argv += 2;
      continue;
    }
    if (argc >= 2 && std::string(argv[1]).rfind("--max-", 0) == 0) {
      if (!tools::parseQuotaFlag("congen-run", argv[1], options.quotas)) {
        std::cerr << "congen-run: unknown option " << argv[1] << "\n";
        return 2;
      }
      --argc;
      ++argv;
      continue;
    }
    if (argc >= 4 && std::string(argv[1]) == "--supervise") {
      // SOFT HARD seconds, 0 < SOFT <= HARD.
      superviseSoftSec =
          tools::numberOrExit("congen-run", "--supervise", argv[2], 1, tools::kMaxSeconds);
      superviseHardSec = tools::numberOrExit("congen-run", "--supervise", argv[3],
                                             superviseSoftSec, tools::kMaxSeconds);
      options.governed = true;  // supervision needs a session governor
      argc -= 3;
      argv += 3;
      continue;
    }
    break;
  }
  // Arm the watchdog only after the whole prefix-flag loop: `--timeout`
  // may appear before `--metrics-json`/`--trace-out`, and the watchdog
  // must flush whatever observability the full command line asked for.
  // Detached on purpose: it never fires on a healthy run, and a hung
  // run is exactly when joining would be impossible.
  if (timeoutSeconds > 0) {
    std::thread([seconds = timeoutSeconds, obs] {
      std::this_thread::sleep_for(std::chrono::seconds(seconds));
      std::cerr << "congen-run: watchdog expired after " << seconds << "s\n";
      congen::Pipe::dumpAll(std::cerr);
      if (congen::obs::metricsEnabled() && !obs.stats) {
        congen::obs::Registry::global().snapshot().writeText(std::cerr);
      }
      emitObservability(obs);
      std::_Exit(3);
    }).detach();
  }
  congen::interp::Interpreter interp(options);
  // Arm the cooperative watchdog over the session governor. The
  // diagnostics callback is injected here — the governor layer never
  // names concur or obs types. The Watch is destroyed (un-watched) when
  // a healthy run returns before the deadlines.
  congen::governor::Supervisor::Watch watch;
  if (superviseSoftSec > 0 && interp.resourceGovernor() != nullptr) {
    watch = congen::governor::Supervisor::global().watch(
        interp.resourceGovernor(), std::chrono::seconds(superviseSoftSec),
        std::chrono::seconds(superviseHardSec), [] {
          std::cerr << "congen-run: supervisor hard teardown — live pipe state:\n";
          congen::Pipe::dumpAll(std::cerr);
          if (congen::obs::metricsEnabled()) {
            congen::obs::Registry::global().snapshot().writeText(std::cerr);
          }
        });
  }
  int code = 0;
  try {
    code = run(argc, argv, interp);
  } catch (const std::exception& e) {
    std::cerr << "congen-run: " << e.what() << "\n";
    code = 1;
  }
  emitObservability(obs);
  return code;
}
