// session.hpp — one tenant of the congen-serve daemon.
//
// A Session owns an isolated Interpreter constructed governed
// (Options::governed = true always — see docs/LANGUAGE.md): even a
// quota-less session has a ResourceGovernor, which is its cancellation
// root and its supervision handle. Construction runs the PR 9 process
// Admission gate, so an over-budget connect throws IconError 815 before
// any interpreter state exists — the server answers with the typed
// refusal and drops the socket (the "shed" path).
//
// Request semantics (see protocol.hpp for the wire format):
//   SUBMIT  — parsed as an expression first (becomes the session's
//             current generator, replacing — and thereby unwinding —
//             any previous one); a program on syntax fallback (defs
//             loaded, top-level statements run bounded).
//   NEXT n  — drives up to n results out of the current generator into
//             one response. Exhaustion reports done:true and drops the
//             generator; a run-time error (including the 81x quota
//             family) surfaces as a typed error frame and also drops it.
//   CANCEL  — drops the current generator; its destruction (run under
//             the session governor) closes every pipe the expression
//             tree owns, so producers retire within one queue op.
//   CLOSE   — acknowledges and asks the server to end the session.
//
// Containment: every drive runs under ScopedGovernor so heap charges
// and credits land on this session's budget regardless of which pool
// thread executes the request. When configured, a Supervisor watch
// brackets each drive: requests that blow the hard deadline are
// terminated (816), which also marks the whole session dead — 816 is
// the one error a session does not survive. Client disconnect calls
// onDisconnect(), which terminates the governor: every thread still
// driving this session throws 816 at its next charge point and every
// pipe linked under the session root is cancelled, unblocking parked
// queue operations within one op.
#pragma once

#include <chrono>
#include <string>

#include "interp/interpreter.hpp"
#include "serve/protocol.hpp"

namespace congen::serve {

class Session {
 public:
  struct Config {
    governor::Limits quotas;  ///< per-tenant budgets (0 = unlimited)
    std::size_t pipeCapacity = 1024;
    interp::Backend backend = interp::defaultBackend();
    /// Per-request supervision (0 = off): soft-cancel after `soft`,
    /// diagnostics + hard terminate (816) after `hard`.
    std::chrono::milliseconds requestSoft{0};
    std::chrono::milliseconds requestHard{0};
  };

  /// Throws IconError 815 when the admission gate sheds the session.
  explicit Session(const Config& config);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Process one request, returning the newline-terminated JSON
  /// response. Never throws: every error becomes a typed error frame.
  [[nodiscard]] std::string handle(const Request& request);

  /// The client acknowledged CLOSE: end the session after this response.
  [[nodiscard]] bool closeRequested() const noexcept { return closeRequested_; }
  /// The session is unrecoverable (supervisor 816): close after the
  /// in-flight response is written.
  [[nodiscard]] bool dead() const noexcept { return dead_; }

  /// Peer hangup: hard-terminate the session so every in-flight drive
  /// unwinds (816 at the next charge point) and every linked pipe's
  /// parked queue op aborts. Safe from any thread, idempotent.
  void onDisconnect() noexcept;

 private:
  [[nodiscard]] std::string handleSubmit(const Request& request);
  [[nodiscard]] std::string handleNext(const Request& request);

  Config config_;
  interp::Interpreter interp_;
  GenPtr gen_;
  bool closeRequested_ = false;
  bool dead_ = false;
};

}  // namespace congen::serve
