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
//   --pipe-capacity N --pipe-batch N           session pipe knobs, each
//                                              in [1, 2^20]
//   --duration S                               exit after S seconds
//                                              (CI smoke; 0 = run until
//                                              SIGINT/SIGTERM; at most
//                                              10^9)
//
// Every numeric flag takes a plain decimal; only the byte and fuel
// budgets (--max-*, --admission-heap) also take K/M/G suffixes. Garbage,
// trailing junk or an out-of-range value exits 2 naming the flag.
//   --stats                                    text metrics snapshot to
//                                              stderr at exit
//   --metrics-json FILE                        JSON snapshot at exit
//
// On a successful bind the daemon prints exactly one line to stdout:
//   congen-serve: listening on HOST:PORT
// and flushes it — scripts wait for that line before connecting.
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "concur/pipe.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void onSignal(int) { g_signalled = 1; }

/// Upper bound for the time flags: about 31 years, so steady_clock
/// deadline arithmetic in nanoseconds can never overflow.
constexpr std::uint64_t kMaxSeconds = 1'000'000'000;

/// Parse a plain decimal into [lo, hi], with an optional K/M/G (binary)
/// suffix when `suffixes` is set (byte and fuel budgets). Signs,
/// whitespace, trailing junk, overflow and values outside the range are
/// all rejected.
bool parseBudget(const std::string& text, std::uint64_t& out, std::uint64_t lo = 0,
                 std::uint64_t hi = std::numeric_limits<std::uint64_t>::max(),
                 bool suffixes = true) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long raw = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE) return false;
  std::uint64_t scale = 1;
  if (suffixes) {
    if (*end == 'K' || *end == 'k') {
      scale = 1024, ++end;
    } else if (*end == 'M' || *end == 'm') {
      scale = 1024 * 1024, ++end;
    } else if (*end == 'G' || *end == 'g') {
      scale = 1024ULL * 1024 * 1024, ++end;
    }
  }
  if (*end != '\0' || raw > hi / scale) return false;
  const std::uint64_t value = static_cast<std::uint64_t>(raw) * scale;
  if (value < lo) return false;
  out = value;
  return true;
}

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
      const char* text = value(flag);
      std::uint64_t v = 0;
      if (!parseBudget(text, v, lo, hi, suffixes)) {
        std::cerr << "congen-serve: bad " << flag << " value '" << text << "' (want " << lo
                  << ".." << hi << ")\n";
        std::exit(2);
      }
      return v;
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
      auto& q = config.session.quotas;
      auto budgetFlag = [&](const std::string& prefix, std::uint64_t& slot) -> int {
        if (arg.rfind(prefix, 0) != 0) return 0;
        if (!parseBudget(arg.substr(prefix.size()), slot)) {
          std::cerr << "congen-serve: bad value in " << arg << " (want e.g. 64M)\n";
          return -1;
        }
        return 1;
      };
      int r = 0;
      if ((r = budgetFlag("--max-heap=", q.maxHeapBytes)) != 0 ||
          (r = budgetFlag("--max-fuel=", q.maxFuel)) != 0 ||
          (r = budgetFlag("--max-pipes=", q.maxPipes)) != 0 ||
          (r = budgetFlag("--max-coexprs=", q.maxCoexprs)) != 0 ||
          (r = budgetFlag("--max-pipe-depth=", q.maxPipeDepth)) != 0 ||
          (r = budgetFlag("--max-depth=", q.maxDepth)) != 0) {
        if (r < 0) return 2;
      } else {
        std::cerr << "congen-serve: unknown option " << arg << "\n";
        return 2;
      }
    } else if (arg == "--admission-sessions") {
      config.admission.maxSessions =
          number("--admission-sessions", 0, std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--admission-heap") {
      config.admission.maxCommittedHeapBytes =
          number("--admission-heap", 0, std::numeric_limits<std::uint64_t>::max(), true);
    } else if (arg == "--request-soft") {
      config.session.requestSoft =
          std::chrono::milliseconds(number("--request-soft", 0, kMaxSeconds * 1000));
    } else if (arg == "--request-hard") {
      config.session.requestHard =
          std::chrono::milliseconds(number("--request-hard", 0, kMaxSeconds * 1000));
    } else if (arg == "--pipe-capacity") {
      config.session.pipeCapacity = number("--pipe-capacity", 1, congen::Pipe::kMaxCapacity);
    } else if (arg == "--pipe-batch") {
      config.session.pipeBatch = number("--pipe-batch", 1, congen::Pipe::kMaxCapacity);
    } else if (arg == "--duration") {
      durationSec = number("--duration", 0, kMaxSeconds);
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
