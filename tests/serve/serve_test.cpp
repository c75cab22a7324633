// serve_test.cpp — integration suite for the congen-serve daemon core,
// over real sockets against an in-process Server on an ephemeral port.
//
// The pyramid's middle layer: protocol_test.cpp covers the pure
// byte-in/byte-out layer, this file covers one Server end to end —
// session lifecycle, request pipelining, concurrent tenants, the typed
// containment surface (810/811 quota trips, 815 admission shed, 816
// supervisor termination), HTTP observability on the same port, and the
// disconnect-cancels-producer regression (a hung-up client must retire
// its pipe producers, observed through the pipe.live gauge).
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/runtime_stats.hpp"
#include "serve/server.hpp"
#include "serve_client.hpp"

namespace congen::serve {
namespace {

using testing::TestClient;

Server::Config baseConfig() {
  Server::Config config;
  config.port = 0;  // ephemeral
  return config;
}

/// Poll `cond` for up to `budget`; true when it held.
template <typename F>
bool eventually(F cond, std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

int responseCode(const std::string& line) {
  const std::size_t at = line.find("\"code\":");
  return at == std::string::npos ? 0 : std::atoi(line.c_str() + at + 7);
}

TEST(ServeLifecycle, SubmitNextCancelClose) {
  Server server(baseConfig());
  server.start();
  TestClient client(server.port());
  client.send({Verb::kSubmit, "1 to 5", 0});
  client.expectHello();
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"generator\"}");
  EXPECT_EQ(client.roundTrip({Verb::kNext, "", 3}),
            "{\"ok\":true,\"done\":false,\"results\":[\"1\",\"2\",\"3\"]}");
  EXPECT_EQ(client.roundTrip({Verb::kNext, "", 3}),
            "{\"ok\":true,\"done\":true,\"results\":[\"4\",\"5\"]}");
  EXPECT_EQ(client.roundTrip({Verb::kCancel, "", 0}), "{\"ok\":true,\"kind\":\"cancelled\"}");
  EXPECT_EQ(client.roundTrip({Verb::kClose, "", 0}), "{\"ok\":true,\"kind\":\"bye\"}");
  EXPECT_TRUE(client.atEof());
  EXPECT_TRUE(eventually([&] { return server.liveSessions() == 0; }));
  server.stop();
}

TEST(ServeLifecycle, ProgramLoadsThenCallsDefinitions) {
  Server server(baseConfig());
  server.start();
  TestClient client(server.port());
  client.send({Verb::kSubmit, "def double(x) { return x * 2; }", 0});
  client.expectHello();
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"loaded\"}");
  EXPECT_EQ(client.roundTrip({Verb::kSubmit, "double(1 to 3)", 0}),
            "{\"ok\":true,\"kind\":\"generator\"}");
  EXPECT_EQ(client.roundTrip({Verb::kNext, "", 10}),
            "{\"ok\":true,\"done\":true,\"results\":[\"2\",\"4\",\"6\"]}");
  server.stop();
}

TEST(ServeLifecycle, PipelinedRequestsAnswerInOrder) {
  Server server(baseConfig());
  server.start();
  TestClient client(server.port());
  // All four frames hit the socket before any response is read: the
  // session task drains them serially, responses in request order.
  client.send({Verb::kSubmit, "\"a\" | \"b\"", 0});
  client.send({Verb::kNext, "", 1});
  client.send({Verb::kNext, "", 5});
  client.send({Verb::kClose, "", 0});
  client.expectHello();
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"generator\"}");
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"done\":false,\"results\":[\"\\\"a\\\"\"]}");
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"done\":true,\"results\":[\"\\\"b\\\"\"]}");
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"bye\"}");
  EXPECT_TRUE(client.atEof());
  server.stop();
}

TEST(ServeLifecycle, NextWithoutGeneratorIs901) {
  Server server(baseConfig());
  server.start();
  TestClient client(server.port());
  client.send({Verb::kNext, "", 1});
  client.expectHello();
  EXPECT_EQ(responseCode(client.readLine()), kErrNoGenerator);
  // The session survives a 901: SUBMIT still works.
  EXPECT_EQ(client.roundTrip({Verb::kSubmit, "42", 0}), "{\"ok\":true,\"kind\":\"generator\"}");
  server.stop();
}

TEST(ServeLifecycle, UnknownVerbIs900AndSessionSurvives) {
  Server server(baseConfig());
  server.start();
  TestClient client(server.port());
  client.sendPayload("BOGUS\nwhatever");
  client.expectHello();
  EXPECT_EQ(responseCode(client.readLine()), kErrProtocol);
  EXPECT_EQ(client.roundTrip({Verb::kSubmit, "7", 0}), "{\"ok\":true,\"kind\":\"generator\"}");
  server.stop();
}

TEST(ServeLifecycle, SyntaxErrorIsTypedNotFatal) {
  Server server(baseConfig());
  server.start();
  TestClient client(server.port());
  client.send({Verb::kSubmit, ")))((", 0});
  client.expectHello();
  EXPECT_EQ(responseCode(client.readLine()), kErrProtocol);
  EXPECT_EQ(client.roundTrip({Verb::kSubmit, "1", 0}), "{\"ok\":true,\"kind\":\"generator\"}");
  server.stop();
}

TEST(ServeLifecycle, OversizedFrameIs902AndCloses) {
  Server server(baseConfig());
  server.start();
  TestClient client(server.port());
  // First classify as a protocol session with a valid frame, then
  // announce an absurd length: the decoder poisons and the server
  // answers 902 before dropping the connection.
  client.send({Verb::kSubmit, "1", 0});
  client.expectHello();
  client.readLine();  // generator ack
  std::string prefix = {'\x7f', '\x00', '\x00', '\x00'};
  client.sendRaw(prefix);
  EXPECT_EQ(responseCode(client.readLine()), kErrFrameTooLarge);
  EXPECT_TRUE(client.atEof());
  EXPECT_TRUE(eventually([&] { return server.liveSessions() == 0; }));
  server.stop();
}

TEST(ServeHttp, HealthzMetricsJsonAnd404OnSamePort) {
  Server server(baseConfig());
  server.start();
  {
    TestClient warm(server.port());
    warm.send({Verb::kSubmit, "1 to 3", 0});
    warm.expectHello();
    warm.readLine();
    warm.roundTrip({Verb::kClose, "", 0});
  }
  auto get = [&](const std::string& path) {
    TestClient http(server.port());
    http.sendRaw("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
    std::string all, line;
    while (http.tryReadLine(line)) all += line + "\n";
    return all;
  };
  const std::string healthz = get("/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos) << healthz;
  const std::string metrics = get("/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("serve.sessions_opened"), std::string::npos) << metrics.substr(0, 400);
  const std::string metricsJson = get("/metrics.json");
  EXPECT_NE(metricsJson.find("\"counters\""), std::string::npos);
  EXPECT_NE(metricsJson.find("serve.requests"), std::string::npos);
  EXPECT_NE(get("/nope").find("404"), std::string::npos);
  server.stop();
}

TEST(ServeConcurrency, ManySessionsInterleave) {
  Server server(baseConfig());
  server.start();
  constexpr int kThreads = 16;
  constexpr int kIterations = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TestClient client(server.port());
      client.send({Verb::kSubmit, std::to_string(t) + " to " + std::to_string(t + 9), 0});
      client.expectHello();
      if (client.readLine().find("generator") == std::string::npos) ++failures;
      for (int i = 0; i < kIterations; ++i) {
        const std::string r = client.roundTrip({Verb::kNext, "", 10});
        if (r.find("\"ok\":true") == std::string::npos) ++failures;
        if (client.roundTrip({Verb::kSubmit, "1 to 10", 0}).find("generator") ==
            std::string::npos) {
          ++failures;
        }
      }
      client.roundTrip({Verb::kClose, "", 0});
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(eventually([&] { return server.liveSessions() == 0; }));
  server.stop();
}

TEST(ServeQuota, FuelTripSurfacesAs810InFrame) {
  Server::Config config = baseConfig();
  config.session.quotas.maxFuel = 50000;
  Server server(config);
  server.start();
  TestClient client(server.port());
  client.send({Verb::kSubmit, "def spin() { while 1 do 0; }", 0});
  client.expectHello();
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"loaded\"}");
  EXPECT_EQ(client.roundTrip({Verb::kSubmit, "spin()", 0}), "{\"ok\":true,\"kind\":\"generator\"}");
  EXPECT_EQ(responseCode(client.roundTrip({Verb::kNext, "", 1})), 810);
  // The trip is typed containment, not connection death.
  EXPECT_EQ(client.roundTrip({Verb::kClose, "", 0}), "{\"ok\":true,\"kind\":\"bye\"}");
  server.stop();
}

TEST(ServeQuota, HeapTripSurfacesAs811InFrame) {
  Server::Config config = baseConfig();
  config.session.quotas.maxHeapBytes = 1u << 20;
  Server server(config);
  server.start();
  TestClient client(server.port());
  client.send(
      {Verb::kSubmit,
       "def hoard() { local L, i; L := []; every i := 1 to 10000000 do put(L, []); }", 0});
  client.expectHello();
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"loaded\"}");
  client.send({Verb::kSubmit, "hoard()", 0});
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"generator\"}");
  EXPECT_EQ(responseCode(client.roundTrip({Verb::kNext, "", 1})), 811);
  server.stop();
}

TEST(ServeAdmission, OverBudgetConnectIsShed815) {
  Server::Config config = baseConfig();
  // The admission gate negotiates committed budgets: only sessions that
  // commit quotas are gated (a limitless governor bypasses admission by
  // design — see runtime/governor.hpp), so serve deployments pair
  // --admission-* with per-session --max-* quotas.
  config.session.quotas.maxHeapBytes = 64u << 20;
  config.admission.maxSessions = 1;
  // The gate is process-global: wait out any admitted session a prior
  // test's teardown is still releasing.
  ASSERT_TRUE(eventually([] { return governor::Admission::global().liveSessions() == 0; }));
  Server server(config);
  server.start();
  TestClient first(server.port());
  first.send({Verb::kSubmit, "1 to 3", 0});
  first.expectHello();
  first.readLine();
  const auto shedBefore = obs::ServeStats::get().sessionsShed.value();
  TestClient second(server.port());
  second.send({Verb::kSubmit, "1 to 3", 0});
  // No hello: the admission gate refused before a session existed.
  EXPECT_EQ(responseCode(second.readLine()), 815);
  EXPECT_TRUE(second.atEof());
  EXPECT_EQ(obs::ServeStats::get().sessionsShed.value(), shedBefore + 1);
  // Slot frees once the first session ends; a new connect is admitted.
  first.roundTrip({Verb::kClose, "", 0});
  EXPECT_TRUE(first.atEof());
  ASSERT_TRUE(eventually([&] { return server.liveSessions() == 0; }));
  TestClient third(server.port());
  third.send({Verb::kSubmit, "1 to 3", 0});
  third.expectHello();
  EXPECT_EQ(third.readLine(), "{\"ok\":true,\"kind\":\"generator\"}");
  server.stop();
}

TEST(ServeSupervision, RunawayRequestIsTerminated816) {
  Server::Config config = baseConfig();
  config.session.requestSoft = std::chrono::milliseconds(100);
  config.session.requestHard = std::chrono::milliseconds(400);
  Server server(config);
  server.start();
  TestClient client(server.port());
  client.send({Verb::kSubmit, "def spin() { while 1 do 0; }", 0});
  client.expectHello();
  client.readLine();
  client.send({Verb::kSubmit, "spin()", 0});
  client.readLine();
  const std::string response = client.roundTrip({Verb::kNext, "", 1});
  EXPECT_EQ(responseCode(response), 816) << response;
  // 816 is the one error a session does not survive: the server closes
  // after the typed response.
  EXPECT_TRUE(client.atEof());
  EXPECT_TRUE(eventually([&] { return server.liveSessions() == 0; }));
  server.stop();
}

TEST(ServeDisconnect, MidStreamHangupCancelsPipeProducer) {
  Server server(baseConfig());
  server.start();
  const auto pipesBefore = obs::PipeStats::get().live.value();
  {
    TestClient client(server.port());
    // A pipe producer with a practically-infinite stream: after NEXT
    // drains a few results, the producer parks on the bounded queue.
    client.send({Verb::kSubmit, "! |> (1 to 1000000000)", 0});
    client.expectHello();
    EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"generator\"}");
    const std::string r = client.roundTrip({Verb::kNext, "", 5});
    EXPECT_NE(r.find("\"results\":[\"1\",\"2\",\"3\",\"4\",\"5\"]"), std::string::npos) << r;
    client.hangUp();  // mid-stream: no CANCEL, no CLOSE
  }
  // The disconnect must terminate the session: the producer's parked
  // queue op aborts, the pipe tree unwinds, and the session is reaped.
  EXPECT_TRUE(eventually([&] { return server.liveSessions() == 0; }));
  EXPECT_TRUE(eventually([&] { return obs::PipeStats::get().live.value() <= pipesBefore; }))
      << "leaked pipe: live=" << obs::PipeStats::get().live.value()
      << " baseline=" << pipesBefore;
  const auto disconnects = obs::ServeStats::get().disconnects.value();
  EXPECT_GE(disconnects, 1u);
  server.stop();
}

TEST(ServeBounded, PipeRunAheadStopsAtTheRingCapacity) {
  // One session's pipe may run ahead of its consumer only as far as its
  // ring: at the default capacity (1024) the producer parks there,
  // instead of buffering the whole stream.
  Server server(baseConfig());
  server.start();
  auto& queue = obs::QueueStats::get();
  const auto depth0 = queue.depth.value();
  const auto rings0 = obs::RingStats::get().created.value();
  const auto pipes0 = obs::PipeStats::get().created.value();
  TestClient client(server.port());
  client.send({Verb::kSubmit, "! |> (1 to 200000)", 0});
  client.expectHello();
  EXPECT_EQ(client.readLine(), "{\"ok\":true,\"kind\":\"generator\"}");
  const std::string r = client.roundTrip({Verb::kNext, "", 1});
  EXPECT_NE(r.find("\"results\":[\"1\"]"), std::string::npos) << r;
  const auto depth = [&] { return queue.depth.value() - depth0; };
  EXPECT_TRUE(eventually([&] { return depth() >= 1024; })) << "depth " << depth();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(depth(), 1024) << "the producer ran past its ring";
  EXPECT_EQ(obs::RingStats::get().created.value() - rings0,
            obs::PipeStats::get().created.value() - pipes0)
      << "every pipe runs on exactly one ring";
  EXPECT_EQ(client.roundTrip({Verb::kClose, "", 0}), "{\"ok\":true,\"kind\":\"bye\"}");
  EXPECT_TRUE(eventually([&] { return server.liveSessions() == 0; }));
  server.stop();
}

TEST(ServeShutdown, StopDrainsLiveSessionsAndRestartWorks) {
  Server::Config config = baseConfig();
  Server server(config);
  server.start();
  const std::uint16_t firstPort = server.port();
  TestClient client(server.port());
  client.send({Verb::kSubmit, "! |> (1 to 1000000000)", 0});
  client.expectHello();
  client.readLine();
  client.roundTrip({Verb::kNext, "", 3});
  server.stop();  // live session with a parked producer: must drain
  EXPECT_TRUE(client.atEof());
  EXPECT_EQ(server.liveSessions(), 0u);
  // The same Server object can start again (fresh ephemeral port).
  server.start();
  TestClient again(server.port());
  again.send({Verb::kSubmit, "99", 0});
  again.expectHello();
  EXPECT_EQ(again.readLine(), "{\"ok\":true,\"kind\":\"generator\"}");
  server.stop();
  (void)firstPort;
}

}  // namespace
}  // namespace congen::serve
