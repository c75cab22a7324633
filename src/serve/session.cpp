#include "serve/session.hpp"

#include <optional>
#include <vector>

#include "frontend/lexer.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/error.hpp"

namespace congen::serve {

namespace {

interp::Interpreter::Options sessionOptions(const Session::Config& config) {
  interp::Interpreter::Options options;
  options.pipeCapacity = config.pipeCapacity;
  options.backend = config.backend;
  options.quotas = config.quotas;
  options.governed = true;  // always: the governor is the session root
  return options;
}

}  // namespace

Session::Session(const Config& config)
    : config_(config), interp_(sessionOptions(config)) {}

Session::~Session() {
  // The generator tree must unwind under the session governor (its heap
  // credits balance the charges); GovernedRootGen's destructor handles
  // that, the interpreter destructor covers the globals.
  gen_.reset();
}

void Session::onDisconnect() noexcept {
  const auto& gov = interp_.resourceGovernor();
  if (gov != nullptr) gov->terminate();
}

std::string Session::handle(const Request& request) {
  // Everything a request does — parsing, driving, and destroying values
  // — runs with this session's governor installed on the worker thread,
  // so accounting follows the session, not the thread.
  governor::ScopedGovernor governed(interp_.resourceGovernor());
  const auto& gov = interp_.resourceGovernor();
  if (gov != nullptr && gov->terminated()) {
    dead_ = true;
    return makeError(kErrSessionTerminated, "session terminated by supervisor");
  }
  // Bracket the drive with a supervisor watch when configured: a
  // request that exceeds the hard deadline is terminated (816), taking
  // the session with it. The Watch is cancelled (and any in-flight
  // escalation waited out) when `watch` leaves scope.
  governor::Supervisor::Watch watch;
  if (config_.requestHard.count() > 0 && gov != nullptr &&
      (request.verb == Verb::kSubmit || request.verb == Verb::kNext)) {
    watch = governor::Supervisor::global().watch(gov, config_.requestSoft, config_.requestHard);
  }
  try {
    switch (request.verb) {
      case Verb::kSubmit:
        return handleSubmit(request);
      case Verb::kNext:
        return handleNext(request);
      case Verb::kCancel:
        gen_.reset();
        return makeOk("cancelled");
      case Verb::kClose:
        closeRequested_ = true;
        return makeOk("bye");
    }
    return makeError(kErrProtocol, "unreachable verb");
  } catch (const IconError& e) {
    gen_.reset();  // an errored drive is not resumable
    if (e.number() == kErrSessionTerminated) {
      dead_ = true;
      if (obs::metricsEnabled()) [[unlikely]] {
        obs::ServeStats::get().sessionsTerminated.add(1);
      }
    }
    return makeError(e.number(), e.message());
  } catch (const frontend::SyntaxError& e) {
    return makeError(kErrProtocol, std::string("syntax error: ") + e.what());
  } catch (const std::exception& e) {
    gen_.reset();
    return makeError(kErrInternal, e.what());
  }
}

std::string Session::handleSubmit(const Request& request) {
  // REPL classification order: expression first, program on fallback.
  // Replacing gen_ destroys the previous tree under the governor
  // installed by handle(), unwinding its pipes.
  try {
    GenPtr gen = interp_.eval(request.body);
    gen_ = std::move(gen);
    return makeOk("generator");
  } catch (const frontend::SyntaxError&) {
    interp_.load(request.body);
    return makeOk("loaded");
  }
}

std::string Session::handleNext(const Request& request) {
  if (gen_ == nullptr) {
    return makeError(kErrNoGenerator, "NEXT with no current generator (SUBMIT first)");
  }
  std::vector<std::string> results;
  results.reserve(static_cast<std::size_t>(request.n));
  bool done = false;
  for (std::uint64_t i = 0; i < request.n; ++i) {
    std::optional<Value> v = gen_->nextValue();
    if (!v) {
      done = true;
      gen_.reset();
      break;
    }
    results.push_back(v->image());
  }
  if (obs::metricsEnabled()) [[unlikely]] {
    obs::ServeStats::get().resultsStreamed.add(results.size());
  }
  return makeResults(results, done);
}

}  // namespace congen::serve
