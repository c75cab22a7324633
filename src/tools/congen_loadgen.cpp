// congen-loadgen — load driver for the congen-serve daemon.
//
// Replays mixed workloads at N concurrent sessions against a running
// daemon and reports per-request latency percentiles plus session
// throughput. One OS thread per session (sessions hold a connection
// open; the daemon's event loop is the thing under test, not the
// driver's scheduling).
//
// Workloads (--mix):
//   repl       REPL burst: SUBMIT "1 to 100" then NEXT 100 — the cheap,
//              latency-sensitive interactive shape.
//   pipeline   long |> pipeline: SUBMIT "! |> (1 to 64)" then NEXT 64 —
//              every result crosses a concurrent pipe.
//   mapreduce  the paper's Fig. 4 mapReduce folded over pipes: one
//              program load at session start, then SUBMIT + NEXT per
//              iteration.
//   mixed      session i runs workload i mod 3.
//
// Usage:
//   congen-loadgen [--host H] [--port N] [--sessions N] [--duration S]
//                  [--mix repl|pipeline|mapreduce|mixed]
//                  [--iters-per-session N]   N > 0: CLOSE + reconnect
//                                            every N iterations (churn;
//                                            reports sessions/sec)
//                  [--think MS]              sleep between iterations —
//                                            bursty REPL-user traffic
//                                            instead of saturation
//                  [--json FILE]             google-benchmark-shaped
//                                            report (CI diff gate)
//
// Numeric values are plain decimals, range-checked by tools/flags.hpp:
// --port in [1, 65535], --sessions in [1, 4096], --duration in
// [1, 10^9]. Garbage, a sign, trailing junk or an out-of-range value
// exits 2 naming the flag.
//
// Exit status: 0 on a clean run, 1 when any session was shed (815) or
// any response was a typed error — the CI smoke job leans on that.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "tools/flags.hpp"

namespace {

namespace tools = congen::tools;

/// One OS thread per session: the bound keeps a mistyped count from
/// asking for millions of threads.
constexpr std::uint64_t kMaxSessions = 4096;

using Clock = std::chrono::steady_clock;
namespace serve = congen::serve;

struct Totals {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> sheds{0};
  std::atomic<std::uint64_t> connectFailures{0};
  std::atomic<std::uint64_t> sessionsOpened{0};
  std::atomic<std::uint64_t> sessionsCompleted{0};
  std::mutex mu;
  std::vector<std::uint64_t> latencyMicros;  // merged per-thread at exit
};

bool isErrorResponse(const std::string& line, int* code = nullptr) {
  if (line.find("\"ok\":false") == std::string::npos) return false;
  if (code != nullptr) {
    const std::size_t at = line.find("\"code\":");
    *code = at == std::string::npos ? 0 : std::atoi(line.c_str() + at + 7);
  }
  return true;
}

/// Line-buffered protocol client over a blocking socket. The client
/// speaks first (the server classifies the connection on its opening
/// bytes), so the hello — or the 815 shed refusal — is consumed lazily
/// in front of the first response.
struct Client {
  serve::Socket sock;
  std::string buf;
  bool sawHello = false;
  int refusalCode = 0;  // nonzero: the server refused instead of hello

  bool readLine(std::string& line) {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf, 0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      if (!serve::readSome(sock, buf)) return false;
    }
  }

  /// One round trip; returns false on transport failure or refusal
  /// (refusalCode tells which).
  bool roundTrip(const serve::Request& request, std::string& response) {
    try {
      serve::writeAll(sock, serve::encodeFrame(request));
    } catch (const std::exception&) {
      return false;
    }
    if (!readLine(response)) return false;
    if (!sawHello) {
      sawHello = true;
      if (isErrorResponse(response, &refusalCode)) return false;
      if (!readLine(response)) return false;  // hello consumed; now the answer
    }
    return true;
  }
};

constexpr const char* kMapReduceProgram = R"(
def chunk(e) {
  local c;
  c := [];
  while put(c, @e) do {
    if (*c >= 4) then { suspend c; c := []; }
  };
  if (*c > 0) then { return c; };
}
def mapReduce(f, s, r, i) {
  local c, t, tasks;
  tasks := [];
  every (c := chunk(<> s())) do {
    t := |> { local x; x := i; every (x := r(x, f(!c))); x };
    put(tasks, t);
  };
  suspend ! (! tasks);
}
def src() { suspend 1 to 16; }
def sq(x) { return x * x; }
def add(a, b) { return a + b; }
)";

enum class Mix { kRepl, kPipeline, kMapReduce, kMixed };

struct Step {
  serve::Request request;
};

std::vector<Step> workloadSteps(Mix mix, std::size_t sessionIndex) {
  Mix effective = mix;
  if (mix == Mix::kMixed) {
    effective = static_cast<Mix>(sessionIndex % 3);
  }
  std::vector<Step> steps;
  switch (effective) {
    case Mix::kRepl:
      steps.push_back({{serve::Verb::kSubmit, "1 to 100", 0}});
      steps.push_back({{serve::Verb::kNext, "", 100}});
      break;
    case Mix::kPipeline:
      steps.push_back({{serve::Verb::kSubmit, "! |> (1 to 64)", 0}});
      steps.push_back({{serve::Verb::kNext, "", 64}});
      break;
    case Mix::kMapReduce:
    case Mix::kMixed:
      steps.push_back({{serve::Verb::kSubmit, "mapReduce(sq, src, add, 0)", 0}});
      steps.push_back({{serve::Verb::kNext, "", 8}});
      break;
  }
  return steps;
}

bool needsMapReduceSetup(Mix mix, std::size_t sessionIndex) {
  return mix == Mix::kMapReduce || (mix == Mix::kMixed && sessionIndex % 3 == 2);
}

void sessionThread(const std::string& host, std::uint16_t port, Mix mix, std::size_t index,
                   Clock::time_point deadline, std::uint64_t itersPerSession,
                   std::uint64_t thinkMs, Totals& totals) {
  std::vector<std::uint64_t> latencies;
  latencies.reserve(4096);
  while (Clock::now() < deadline) {
    Client client;
    try {
      client.sock = serve::connectTo(host, port);
    } catch (const std::exception&) {
      totals.connectFailures.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    std::string line;
    bool transportOk = true;
    bool opened = false;
    auto noteFailure = [&] {
      if (client.refusalCode == 815) {
        totals.sheds.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      } else if (client.refusalCode != 0) {
        totals.errors.fetch_add(1, std::memory_order_relaxed);
      } else if (!opened) {
        totals.connectFailures.fetch_add(1, std::memory_order_relaxed);
      }
    };
    if (needsMapReduceSetup(mix, index)) {
      transportOk = client.roundTrip({serve::Verb::kSubmit, kMapReduceProgram, 0}, line);
      if (transportOk) {
        opened = true;
        totals.sessionsOpened.fetch_add(1, std::memory_order_relaxed);
        totals.requests.fetch_add(1, std::memory_order_relaxed);
        if (isErrorResponse(line)) totals.errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    std::uint64_t iters = 0;
    while (transportOk && Clock::now() < deadline &&
           (itersPerSession == 0 || iters < itersPerSession)) {
      for (const Step& step : workloadSteps(mix, index)) {
        const auto begin = Clock::now();
        if (!client.roundTrip(step.request, line)) {
          transportOk = false;
          break;
        }
        if (!opened) {
          opened = true;  // the hello preceded this response
          totals.sessionsOpened.fetch_add(1, std::memory_order_relaxed);
        }
        const auto micros =
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - begin);
        latencies.push_back(static_cast<std::uint64_t>(micros.count()));
        totals.requests.fetch_add(1, std::memory_order_relaxed);
        if (isErrorResponse(line)) totals.errors.fetch_add(1, std::memory_order_relaxed);
      }
      ++iters;
      if (thinkMs > 0 && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(thinkMs));
      }
    }
    if (!transportOk) {
      noteFailure();
      continue;
    }
    if (client.roundTrip({serve::Verb::kClose, "", 0}, line)) {
      totals.sessionsCompleted.fetch_add(1, std::memory_order_relaxed);
    }
    if (itersPerSession == 0) break;  // held for the whole run: one cycle
  }
  std::lock_guard lock(totals.mu);
  totals.latencyMicros.insert(totals.latencyMicros.end(), latencies.begin(), latencies.end());
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p / 100.0 * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

const char* mixName(Mix mix) {
  switch (mix) {
    case Mix::kRepl: return "repl";
    case Mix::kPipeline: return "pipeline";
    case Mix::kMapReduce: return "mapreduce";
    case Mix::kMixed: return "mixed";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7117;
  std::size_t sessions = 64;
  std::uint64_t durationSec = 10;
  std::uint64_t itersPerSession = 0;
  std::uint64_t thinkMs = 0;
  Mix mix = Mix::kMixed;
  std::string jsonPath;

  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "congen-loadgen: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](const char* flag, std::uint64_t lo, std::uint64_t hi) -> std::uint64_t {
      return tools::numberOrExit("congen-loadgen", flag, value(flag), lo, hi);
    };
    if (arg == "--host") {
      host = value("--host");
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(number("--port", 1, 65535));
    } else if (arg == "--sessions") {
      sessions = static_cast<std::size_t>(number("--sessions", 1, kMaxSessions));
    } else if (arg == "--duration") {
      durationSec = number("--duration", 1, tools::kMaxSeconds);
    } else if (arg == "--iters-per-session") {
      itersPerSession = number("--iters-per-session", 0, tools::kMaxU64);
    } else if (arg == "--think") {
      thinkMs = number("--think", 0, tools::kMaxSeconds * 1000);
    } else if (arg == "--json") {
      jsonPath = value("--json");
    } else if (arg == "--mix") {
      const std::string which = value("--mix");
      if (which == "repl") {
        mix = Mix::kRepl;
      } else if (which == "pipeline") {
        mix = Mix::kPipeline;
      } else if (which == "mapreduce") {
        mix = Mix::kMapReduce;
      } else if (which == "mixed") {
        mix = Mix::kMixed;
      } else {
        std::cerr << "congen-loadgen: unknown mix '" << which << "'\n";
        return 2;
      }
    } else {
      std::cerr << "congen-loadgen: unknown option " << arg << "\n";
      return 2;
    }
  }

  Totals totals;
  const auto begin = Clock::now();
  const auto deadline = begin + std::chrono::seconds(durationSec);
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    threads.emplace_back(sessionThread, host, port, mix, i, deadline, itersPerSession, thinkMs,
                         std::ref(totals));
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() - begin).count();

  std::sort(totals.latencyMicros.begin(), totals.latencyMicros.end());
  const auto& lat = totals.latencyMicros;
  const std::uint64_t p50 = percentile(lat, 50), p90 = percentile(lat, 90),
                      p99 = percentile(lat, 99);
  const std::uint64_t maxLat = lat.empty() ? 0 : lat.back();
  const std::uint64_t requests = totals.requests.load();
  const std::uint64_t completed = totals.sessionsCompleted.load();

  std::cout << "congen-loadgen: mix=" << mixName(mix) << " sessions=" << sessions
            << " duration=" << durationSec << "s\n"
            << "  requests:  " << requests << " ("
            << static_cast<std::uint64_t>(static_cast<double>(requests) / elapsed) << "/s)\n"
            << "  latency:   p50=" << p50 << "us p90=" << p90 << "us p99=" << p99
            << "us max=" << maxLat << "us\n"
            << "  sessions:  opened=" << totals.sessionsOpened.load()
            << " completed=" << completed << " ("
            << static_cast<std::uint64_t>(static_cast<double>(completed) / elapsed)
            << "/s) shed=" << totals.sheds.load() << "\n"
            << "  failures:  errors=" << totals.errors.load()
            << " connect=" << totals.connectFailures.load() << "\n";

  if (!jsonPath.empty()) {
    std::ofstream out(jsonPath);
    if (!out) {
      std::cerr << "congen-loadgen: cannot write " << jsonPath << "\n";
      return 1;
    }
    // google-benchmark report shape so the existing baseline-diff gate
    // (ci: bench-smoke) can pair entries by name.
    const std::string prefix = std::string("serve/") + mixName(mix);
    auto entry = [&](const std::string& name, double v, const char* unit) {
      out << "    {\"name\": \"" << name << "\", \"run_type\": \"iteration\", "
          << "\"iterations\": " << requests << ", \"real_time\": " << v
          << ", \"cpu_time\": " << v << ", \"time_unit\": \"" << unit << "\"}";
    };
    out << "{\n  \"context\": {\"sessions\": " << sessions << ", \"duration_s\": " << durationSec
        << ", \"think_ms\": " << thinkMs << ", \"mix\": \"" << mixName(mix)
        << "\"},\n  \"benchmarks\": [\n";
    entry(prefix + "/p50", static_cast<double>(p50), "us");
    out << ",\n";
    entry(prefix + "/p99", static_cast<double>(p99), "us");
    out << "\n  ],\n  \"serve\": {\"requests\": " << requests << ", \"errors\": "
        << totals.errors.load() << ", \"shed\": " << totals.sheds.load()
        << ", \"connect_failures\": " << totals.connectFailures.load()
        << ", \"sessions_opened\": " << totals.sessionsOpened.load()
        << ", \"sessions_completed\": " << completed << ", \"sessions_per_sec\": "
        << static_cast<double>(completed) / elapsed << "}\n}\n";
  }

  const bool failed = totals.sheds.load() != 0 || totals.errors.load() != 0;
  return failed ? 1 : 0;
}
