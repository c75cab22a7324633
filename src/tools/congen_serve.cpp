// congen-serve — multi-tenant script-execution daemon (ROADMAP item 3).
//
// Serves the congen wire protocol (src/serve/protocol.hpp) on one TCP
// port: each connection is an isolated, governed interpreter session on
// the work-stealing pool, contained by per-tenant quotas (PR 9
// governor), shed by the process admission gate when over budget, and
// cancelled end-to-end when the client disconnects. The same port
// answers HTTP GETs for /metrics, /metrics.json, and /healthz.
//
// Usage:
//   congen-serve [--host H] [--port N]         bind address (default
//                                              127.0.0.1:7117; N in
//                                              [0, 65535], 0 = ephemeral,
//                                              printed on stdout)
//   --backend=vm|tree                          per-session backend
//   --max-heap=64M --max-fuel=... etc.         per-session quotas, same
//                                              spelling as congen-run
//                                              (K/M/G suffixes)
//   --admission-sessions N                     process admission gate:
//   --admission-heap 1G                        shed (typed 815) past
//                                              N live sessions or the
//                                              committed-heap ceiling
//   --request-soft MS --request-hard MS        per-request supervision:
//                                              soft-cancel / hard 816
//                                              (0 = off, at most 10^12)
//   --pipe-capacity N                          session pipe capacity, in
//                                              [1, 2^20]
//   --duration S                               exit after S seconds
//                                              (CI smoke; 0 = run until
//                                              SIGINT/SIGTERM; at most
//                                              10^9)
//
// Every numeric flag takes a plain decimal; only the byte and fuel
// budgets (--max-*, --admission-heap) also take K/M/G suffixes. Garbage,
// trailing junk or an out-of-range value exits 2 naming the flag
// (tools/flags.hpp).
//   --stats                                    text metrics snapshot to
//                                              stderr at exit
//   --metrics-json FILE                        JSON snapshot at exit
//
// On a successful bind the daemon prints exactly one line to stdout:
//   congen-serve: listening on HOST:PORT
// and flushes it — scripts wait for that line before connecting.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "concur/pipe.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "tools/flags.hpp"

namespace {

namespace tools = congen::tools;

volatile std::sig_atomic_t g_signalled = 0;

void onSignal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  congen::serve::Server::Config config;
  config.port = 7117;
  bool stats = false;
  std::string metricsJsonPath;
  std::uint64_t durationSec = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "congen-serve: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](const char* flag, std::uint64_t lo, std::uint64_t hi,
                      bool suffixes = false) -> std::uint64_t {
      return tools::numberOrExit("congen-serve", flag, value(flag), lo, hi, suffixes);
    };
    if (arg == "--host") {
      config.host = value("--host");
    } else if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(number("--port", 0, 65535));
    } else if (arg.rfind("--backend=", 0) == 0) {
      const std::string which = arg.substr(10);
      if (which == "vm") {
        config.session.backend = congen::interp::Backend::kVm;
      } else if (which == "tree") {
        config.session.backend = congen::interp::Backend::kTree;
      } else {
        std::cerr << "congen-serve: unknown backend '" << which << "' (want vm or tree)\n";
        return 2;
      }
    } else if (arg.rfind("--max-", 0) == 0) {
      if (!tools::parseQuotaFlag("congen-serve", arg, config.session.quotas)) {
        std::cerr << "congen-serve: unknown option " << arg << "\n";
        return 2;
      }
    } else if (arg == "--admission-sessions") {
      config.admission.maxSessions = number("--admission-sessions", 0, tools::kMaxU64);
    } else if (arg == "--admission-heap") {
      config.admission.maxCommittedHeapBytes = number("--admission-heap", 0, tools::kMaxU64, true);
    } else if (arg == "--request-soft") {
      config.session.requestSoft =
          std::chrono::milliseconds(number("--request-soft", 0, tools::kMaxSeconds * 1000));
    } else if (arg == "--request-hard") {
      config.session.requestHard =
          std::chrono::milliseconds(number("--request-hard", 0, tools::kMaxSeconds * 1000));
    } else if (arg == "--pipe-capacity") {
      config.session.pipeCapacity = number("--pipe-capacity", 1, congen::Pipe::kMaxCapacity);
    } else if (arg == "--duration") {
      durationSec = number("--duration", 0, tools::kMaxSeconds);
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--metrics-json") {
      metricsJsonPath = value("--metrics-json");
    } else {
      std::cerr << "congen-serve: unknown option " << arg << "\n";
      return 2;
    }
  }

  congen::serve::Server server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "congen-serve: " << e.what() << "\n";
    return 1;
  }
  std::cout << "congen-serve: listening on " << config.host << ":" << server.port() << "\n"
            << std::flush;

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);  // dead peers surface as EPIPE, not death
#endif
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(durationSec);
  while (g_signalled == 0) {
    if (durationSec > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cerr << "congen-serve: shutting down\n";
  server.stop();

  if (stats) congen::obs::Registry::global().snapshot().writeText(std::cerr);
  if (!metricsJsonPath.empty()) {
    std::ofstream out(metricsJsonPath);
    if (!out) {
      std::cerr << "congen-serve: cannot write " << metricsJsonPath << "\n";
      return 1;
    }
    congen::obs::Registry::global().snapshot().writeJson(out);
  }
  return 0;
}
