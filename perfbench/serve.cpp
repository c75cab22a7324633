// serve.cpp — the congen-serve daemon under a windowed closed loop.
//
// The real congen-serve binary runs as a child process with its default
// options (only the port is ephemeral, so concurrent checkouts cannot
// collide). One single-threaded client drives it over two connections;
// each keeps a fixed window of requests in flight, so the daemon never
// idles waiting for the client's next send and the measurement is not
// bound by wake-up latency. Each connection loads the mapReduce program
// once, then cycles through its seeded request stream: SUBMIT `a to b`,
// SUBMIT `! |> (a to b)` or SUBMIT `mapReduce(sq, src, add, 0)`, each
// followed by a NEXT, in congen-loadgen's mixed shares. Every response is
// compared byte for byte with the one computed here from the request
// alone. One op is one request.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <deque>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace serve = congen::serve;

constexpr int kConnections = 2;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kPairsPerStream = 4000;

// The mapReduce program congen-loadgen submits (the paper's Fig. 4 over
// pipes): chunks of four from 1..16, squared and summed per chunk.
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

// ---- request stream & oracle ----------------------------------------------

struct Exchange {
  serve::Request request;
  std::string frame;     // wire bytes, encoded here
  std::string expected;  // the exact response line
};

std::string frameOf(const serve::Request& r) {
  std::string payload = r.verb == serve::Verb::kSubmit ? "SUBMIT\n" + r.body
                                                       : "NEXT " + std::to_string(r.n);
  std::string out(4, '\0');
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i) out[i] = static_cast<char>(len >> (24 - 8 * i));
  return out + payload;
}

Exchange exchange(serve::Request r, std::string expected) {
  Exchange e{std::move(r), {}, std::move(expected)};
  e.frame = frameOf(e.request);
  return e;
}

Exchange submit(std::string body, const char* kind) {
  return exchange({serve::Verb::kSubmit, std::move(body), 0},
                  std::string("{\"ok\":true,\"kind\":\"") + kind + "\"}\n");
}

/// NEXT k over a generator of `values`.
Exchange next(std::uint64_t k, const std::vector<std::int64_t>& values) {
  std::string line = "{\"ok\":true,\"done\":";
  line += k > values.size() ? "true" : "false";
  line += ",\"results\":[";
  for (std::size_t i = 0; i < values.size() && i < k; ++i) {
    if (i != 0) line += ',';
    line += '"' + std::to_string(values[i]) + '"';
  }
  line += "]}\n";
  return exchange({serve::Verb::kNext, "", k}, std::move(line));
}

Exchange loadProgram() { return submit(kMapReduceProgram, "loaded"); }

/// The seeded stream of one connection, in congen-loadgen's `--mix mixed`
/// shapes and shares (1:1:1): blocks of three SUBMIT/NEXT pairs, one of
/// each kind, shuffled within the block. The kinds are loadgen's REPL burst
/// (a 100-value range, NEXT 100), pipeline (a 64-value piped range,
/// NEXT 64) and mapReduce (NEXT 8). The seed picks the order within each
/// block and where each range starts.
std::vector<Exchange> makeStream(std::uint64_t seed, int conn) {
  std::mt19937_64 rng(seed * 1000003u + static_cast<std::uint64_t>(conn));
  std::uniform_int_distribution<std::int64_t> start(1, 10000);
  std::vector<Exchange> out;
  out.reserve(2 * kPairsPerStream);
  std::vector<int> kinds = {0, 1, 2};
  while (out.size() < 2 * kPairsPerStream) {
    std::shuffle(kinds.begin(), kinds.end(), rng);
    for (const int kind : kinds) {
      if (kind == 2) {
        // Four chunk sums of squares of 1..16.
        out.push_back(submit("mapReduce(sq, src, add, 0)", "generator"));
        out.push_back(next(8, {30, 174, 446, 846}));
        continue;
      }
      const std::int64_t n = kind == 0 ? 100 : 64;
      const std::int64_t a = start(rng);
      std::vector<std::int64_t> values;
      for (std::int64_t v = a; v < a + n; ++v) values.push_back(v);
      const std::string range = std::to_string(a) + " to " + std::to_string(a + n - 1);
      out.push_back(submit(kind == 0 ? range : "! |> (" + range + ")", "generator"));
      out.push_back(next(static_cast<std::uint64_t>(n), values));
    }
  }
  return out;
}

// ---- daemon ---------------------------------------------------------------

/// The congen-serve child process. The destructor stops it (SIGTERM,
/// then SIGKILL after 10 s) and reaps it.
class Daemon {
 public:
  explicit Daemon(const std::string& bin) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::string portFlag = "--port";
    std::string portValue = "0";
    char* argv[] = {const_cast<char*>(bin.c_str()), portFlag.data(), portValue.data(), nullptr};
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + bin + ": " + std::strerror(rc));
    }
    try {
      port_ = awaitPort();
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] double peakRssMb() const { return procStatusMb(std::to_string(pid_), "VmHWM"); }

  /// Returns the exit status (-1 when it had to be killed).
  int stop() {
    if (pid_ <= 0) return status_;
    kill(pid_, SIGTERM);
    int st = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    pid_t r = 0;
    while ((r = waitpid(pid_, &st, WNOHANG)) == 0 && Clock::now() < deadline) {
      usleep(2000);
    }
    if (r == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &st, 0);
      status_ = -1;
    } else {
      status_ = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    }
    pid_ = -1;
    close(out_);
    return status_;
  }

 private:
  /// Wait for "congen-serve: listening on HOST:PORT".
  std::uint16_t awaitPort() {
    std::string text;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (text.find('\n') == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
      if (left.count() <= 0 || poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        throw std::runtime_error("congen-serve did not report its port");
      }
      char buf[256];
      const ssize_t n = read(out_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("congen-serve exited before listening");
      text.append(buf, static_cast<std::size_t>(n));
    }
    const auto colon = text.rfind(':', text.find('\n'));
    return static_cast<std::uint16_t>(std::stoul(text.substr(colon + 1)));
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
  int status_ = 0;
};

int connectLocal(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw std::runtime_error(std::string("connect failed: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// GET /metrics.json from the daemon, parsed back into a Snapshot
/// (counters and histograms; the daemon writes one metric per line).
congen::obs::Snapshot fetchMetrics(std::uint16_t port) {
  const int fd = connectLocal(port);
  const std::string req = "GET /metrics.json HTTP/1.0\r\n\r\n";
  std::string text;
  std::size_t sent = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    pollfd p{fd, static_cast<short>(sent < req.size() ? POLLOUT : POLLIN), 0};
    if (Clock::now() > deadline || poll(&p, 1, 1000) < 0) break;
    if (sent < req.size()) {
      const ssize_t n = write(fd, req.data() + sent, req.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
      continue;
    }
    char buf[8192];
    const ssize_t n = read(fd, buf, sizeof buf);
    if (n == 0) break;
    if (n > 0) text.append(buf, static_cast<std::size_t>(n));
    if (n < 0 && errno != EAGAIN && errno != EINTR) break;
  }
  close(fd);

  congen::obs::Snapshot snap;
  std::istringstream lines(text);
  std::string line;
  bool inCounters = false;
  while (std::getline(lines, line)) {
    if (line.find("\"counters\"") != std::string::npos) inCounters = true;
    if (line.find("\"gauges\"") != std::string::npos) inCounters = false;
    const auto q1 = line.find('"');
    const auto q2 = q1 == std::string::npos ? q1 : line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    const std::string rest = line.substr(q2 + 1);
    if (rest.find("\"buckets\"") != std::string::npos) {
      congen::obs::HistogramSample h;
      h.name = name;
      std::size_t pos = 0;
      while ((pos = rest.find("{\"le\": ", pos)) != std::string::npos) {
        pos += 7;
        const bool inf = rest[pos] == '"';
        if (!inf) h.bounds.push_back(std::stoull(rest.substr(pos)));
        const auto c = rest.find("\"count\": ", pos);
        h.counts.push_back(std::stoull(rest.substr(c + 9)));
        pos = c;
      }
      for (const auto c : h.counts) h.count += c;
      snap.histograms.push_back(std::move(h));
    } else if (inCounters && rest.size() > 2 && rest.rfind(": ", 0) == 0 &&
               std::isdigit(static_cast<unsigned char>(rest[2])) != 0) {
      snap.counters.emplace_back(name, std::stoull(rest.substr(2)));
    }
  }
  return snap;
}

// ---- client -----------------------------------------------------------------

struct Conn {
  int fd = -1;
  std::vector<Exchange> stream;
  std::size_t nextIdx = 0;   // next stream entry to send
  bool sawHello = false;
  std::string in;
  std::string out;
  struct Inflight {
    const Exchange* ex;
    Clock::time_point sent;
  };
  std::deque<Inflight> inflight;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void enqueue(const Exchange& ex, Clock::time_point now) {
    out += ex.frame;
    inflight.push_back({&ex, now});
  }
  const Exchange& nextExchange() {
    const Exchange& ex = stream[nextIdx];
    nextIdx = (nextIdx + 1) % stream.size();
    return ex;
  }
};

/// Latencies (ms) of checked responses received inside [from, to).
struct Tally {
  std::vector<double> latMs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string firstMismatch;
};

class Client {
 public:
  Client(std::uint16_t port, std::uint64_t seed, int connections) {
    for (int i = 0; i < connections; ++i) {
      auto c = std::make_unique<Conn>();
      c->fd = connectLocal(port);
      c->stream = makeStream(seed, i);
      conns_.push_back(std::move(c));
    }
  }

  /// Keep `window` requests in flight per connection until `until`, then
  /// (when drain) wait for every outstanding response. Responses received
  /// in [countFrom, until) are tallied into `t`; all are checked.
  bool pump(std::size_t window, Clock::time_point countFrom, Clock::time_point until, bool drain,
            Tally& t) {
    for (;;) {
      const auto now = Clock::now();
      const bool sending = now < until;
      bool outstanding = false;
      for (auto& c : conns_) {
        if (sending) {
          while (c->inflight.size() < window) c->enqueue(c->nextExchange(), now);
        }
        if (!flush(*c)) return fail(t, "write failed");
        outstanding = outstanding || !c->inflight.empty();
      }
      if (!sending && (!drain || !outstanding)) return true;
      if (!sending && now > until + std::chrono::seconds(20)) return fail(t, "drain timed out");

      pollfd pfds[8];
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        pfds[i] = {conns_[i]->fd,
                   static_cast<short>(POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT)), 0};
      }
      if (poll(pfds, static_cast<nfds_t>(conns_.size()), 1000) < 0 && errno != EINTR) {
        return fail(t, "poll failed");
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = *conns_[i];
        char buf[65536];
        const ssize_t n = read(c.fd, buf, sizeof buf);
        if (n == 0) return fail(t, "daemon closed the connection");
        if (n < 0) {
          if (errno == EAGAIN || errno == EINTR) continue;
          return fail(t, "read failed");
        }
        c.in.append(buf, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t eol; (eol = c.in.find('\n', begin)) != std::string::npos;
             begin = eol + 1) {
          const std::string_view line(c.in.data() + begin, eol - begin + 1);
          if (!c.sawHello) {
            c.sawHello = true;
            if (line != "{\"ok\":true,\"event\":\"hello\",\"proto\":1}\n") {
              ++t.failed;  // a refusal (815 shed) or garbage instead of hello
              if (t.firstMismatch.empty()) t.firstMismatch = std::string(line);
            }
            continue;
          }
          if (c.inflight.empty()) return fail(t, "response with nothing in flight");
          const auto [ex, sent] = c.inflight.front();
          c.inflight.pop_front();
          const auto got = Clock::now();
          const bool good = line == ex->expected;
          if (!good && t.firstMismatch.empty()) {
            t.firstMismatch = std::string(line) + " for " + ex->request.body;
          }
          if (sent >= countFrom && got < until) {
            ++t.attempted;
            if (!good) ++t.failed;
            t.latMs.push_back(std::chrono::duration<double, std::milli>(got - sent).count());
          } else if (!good) {
            ++t.failed;
            ++t.attempted;
          }
        }
        c.in.erase(0, begin);
      }
    }
  }

  /// Send `ex` on every connection and wait for its answers (set-up).
  bool roundTripAll(const Exchange& ex, Tally& t) {
    for (auto& c : conns_) c->enqueue(ex, Clock::now());
    return pump(0, Clock::time_point::max(), Clock::now(), true, t);
  }
  /// Send `ex` on connection 0 only and wait for the answer.
  bool roundTripFirst(const Exchange& ex, Tally& t) {
    conns_[0]->enqueue(ex, Clock::now());
    return pump(0, Clock::time_point::max(), Clock::now(), true, t);
  }

  Conn& conn(std::size_t i) { return *conns_[i]; }

 private:
  static bool fail(Tally& t, const char* why) {
    ++t.failed;
    if (t.firstMismatch.empty()) t.firstMismatch = why;
    return false;
  }

  static bool flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = write(c.fd, c.out.data(), c.out.size());
      if (n < 0) return errno == EAGAIN || errno == EINTR;
      c.out.erase(0, static_cast<std::size_t>(n));
    }
    return true;
  }

  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Start the daemon, connect, load the program on every connection and
/// answer the first SUBMIT/NEXT pair on connection 0: the cold op.
struct Started {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> client;
};

Started start(const Args& args, Tally& setupTally, Result& out) {
  Started s;
  const auto t0 = Clock::now();
  s.daemon = std::make_unique<Daemon>(args.serveBin);
  s.client = std::make_unique<Client>(s.daemon->port(), args.seed, kConnections);
  const Exchange program = loadProgram();
  bool ok = s.client->roundTripAll(program, setupTally);
  Conn& c0 = s.client->conn(0);
  ok = ok && s.client->roundTripFirst(c0.nextExchange(), setupTally);
  ok = ok && s.client->roundTripFirst(c0.nextExchange(), setupTally);
  out.num("setup_s", secondsSince(t0));
  if (!ok || setupTally.failed != 0) out.fail("set-up failed: " + setupTally.firstMismatch);
  return s;
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

// ---- in-process layer probes (traced run) ---------------------------------

void layerProbes(const std::vector<Exchange>& stream, Result& out) {
  constexpr std::size_t n = 2000;
  const std::size_t count = std::min(n, stream.size());

  // Frame codec: encode, decode and parse the recorded stream.
  std::vector<double> codecUs;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t = Clock::now();
    std::string wire;
    for (std::size_t i = 0; i < count; ++i) wire += serve::encodeFrame(stream[i].request);
    serve::FrameDecoder decoder;
    decoder.feed(wire);
    std::size_t parsed = 0;
    std::string error;
    while (auto payload = decoder.next()) parsed += serve::parseRequest(*payload, error) ? 1 : 0;
    codecUs.push_back(secondsSince(t) * 1e6 / static_cast<double>(count));
    if (parsed != count) out.fail("frame codec lost requests");
    if (rep == 0) {
      std::string mine;
      for (std::size_t i = 0; i < count; ++i) mine += stream[i].frame;
      if (mine != wire) out.fail("encodeFrame disagrees with the reference framing");
    }
  }
  out.num("serve.frame_codec_us", median(codecUs));

  // Session::handle in-process, no socket.
  {
    serve::Session session(serve::Session::Config{});
    if (session.handle(loadProgram().request) != loadProgram().expected) {
      out.fail("in-process program load failed");
    }
    std::vector<double> handleUs;
    for (std::size_t i = 0; i < count; ++i) {
      const auto t = Clock::now();
      const std::string got = session.handle(stream[i].request);
      handleUs.push_back(secondsSince(t) * 1e6);
      if (got != stream[i].expected) out.fail("in-process Session::handle mismatch");
    }
    out.num("serve.session_handle_us_p50", median(handleUs));
  }

  // makeResults over a 64-value NEXT answer.
  {
    std::vector<std::string> images;
    for (int v = 1000; v < 1064; ++v) images.push_back(std::to_string(v));
    std::vector<double> us;
    std::size_t bytes = 0;
    for (int rep = 0; rep < 2000; ++rep) {
      const auto t = Clock::now();
      bytes += serve::makeResults(images, false).size();
      us.push_back(secondsSince(t) * 1e6);
    }
    if (bytes == 0) out.fail("makeResults produced nothing");
    out.num("serve.encode_results_us", median(us));
  }

  // Interpreter::eval on the SUBMIT bodies, without driving them.
  {
    congen::interp::Interpreter interp;
    interp.load(kMapReduceProgram);
    std::vector<double> us;
    for (std::size_t i = 0; i < count; ++i) {
      if (stream[i].request.verb != serve::Verb::kSubmit) continue;
      const auto t = Clock::now();
      auto gen = interp.eval(stream[i].request.body);
      us.push_back(secondsSince(t) * 1e6);
    }
    out.num("interp.eval_compile_us", median(us));
  }
}

}  // namespace

void runServe(const Args& args, Result& out) {
  if (args.serveBin.empty()) throw std::runtime_error("serve needs --serve-bin");
  if (args.trace) congen::obs::enableMetrics();
  signal(SIGPIPE, SIG_IGN);

  Tally setupTally;
  Started s = start(args, setupTally, out);
  if (!out.ok()) {
    if (s.daemon->stop() != 0) out.fail("congen-serve did not exit cleanly");
    return;
  }

  // Warm-up, then the measured window.
  Tally warm;
  const auto w0 = Clock::now();
  s.client->pump(kWindow, Clock::time_point::max(), w0 + seconds(std::min(1.0, args.seconds / 10)),
                 false, warm);
  congen::obs::Snapshot before;
  if (args.trace) before = fetchMetrics(s.daemon->port());
  Tally t;
  const StealProbe steal({"self", std::to_string(s.daemon->pid())});
  const auto m0 = Clock::now();
  const auto m1 = m0 + seconds(args.seconds);
  s.client->pump(kWindow, m0, m1, true, t);
  const double elapsed = std::chrono::duration<double>(m1 - m0).count();
  // The daemon keeps its default (metrics on): its own counters say how
  // many pool threads and ring parks served the window.
  const congen::obs::Snapshot after = fetchMetrics(s.daemon->port());
  const double served = static_cast<double>(after.counterValue("serve.requests"));
  out.num("daemon_pool_threads", static_cast<double>(after.counterValue("pool.threads_created")));
  out.num("daemon_ring_consumer_parks_per_req",
          ratio(static_cast<double>(after.counterValue("ring.consumer_parks")), served));
  out.num("daemon_ring_producer_parks_per_req",
          ratio(static_cast<double>(after.counterValue("ring.producer_parks")), served));

  const double failed = static_cast<double>(t.failed + warm.failed);
  out.num("attempted", static_cast<double>(t.attempted));
  out.num("failed", failed);
  out.num("elapsed_s", elapsed);
  out.num("host_steal_pct", steal.sharePct());
  out.num("work", static_cast<double>(t.latMs.size()));
  out.num("throughput_per_s", static_cast<double>(t.latMs.size()) / elapsed);
  out.num("op_ms_p50", median(t.latMs));
  out.num("op_samples", static_cast<double>(t.latMs.size()));
  out.num("op_ms_p99", quantile(t.latMs, 0.99));
  out.num("op_ms_max", quantile(t.latMs, 1.0));
  if (failed != 0) {
    out.fail("bad response: " + (t.firstMismatch.empty() ? warm.firstMismatch : t.firstMismatch));
  }

  if (args.trace) {
    const double clientP50Us = median(t.latMs) * 1e3;
    out.num("serve.op_ms_p99", quantile(t.latMs, 0.99));
    out.num("serve.op_ms_p99_samples", static_cast<double>(t.latMs.size()));
    const RegistryDelta reg{before, after};
    const double requests = reg.counter("serve.requests");
    const double serverP50 = reg.histQuantile("serve.request_latency_micros", 0.5);
    out.num("serve.server_latency_us_p50", serverP50);
    out.num("serve.transport_share", 1.0 - serverP50 / clientP50Us);
    out.num("serve.bytes_written_per_req", ratio(reg.counter("serve.bytes_written"), requests));
    out.num("concur.pipe.created_per_req", ratio(reg.counter("pipe.created"), requests));

    // One connection, one request in flight.
    Tally rtt;
    Conn& c0 = s.client->conn(0);
    std::vector<double> rttMs;
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = Clock::now();
      if (!s.client->roundTripFirst(c0.nextExchange(), rtt)) break;
      rttMs.push_back(secondsSince(t0) * 1e3);
    }
    if (rtt.failed != 0) out.fail("unloaded round trip failed: " + rtt.firstMismatch);
    out.num("serve.unloaded_rtt_ms_p50", median(rttMs));
    layerProbes(c0.stream, out);
  }

  out.num("peak_rss_mb", s.daemon->peakRssMb());
  out.num("client_peak_rss_mb", procStatusMb("self", "VmHWM"));
  if (s.daemon->stop() != 0) out.fail("congen-serve did not exit cleanly");
  recordProcessStats(args, out);
}

}  // namespace perfbench
