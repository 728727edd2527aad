// rpc/ tests: the SDRP wire format (handshake, frame codec, payload
// codecs, malformed-input rejection) and the Channel <-> Server contract —
// multiplexed unary calls, streaming with seq order and backpressure
// cancellation, deadline propagation into the handler's Deadline, graceful
// GOAWAY drain, abrupt-stop failure semantics, and lazy re-dial healing —
// and the server's connection handling: the connection cap, the handshake
// budget for silent peers, output-backlog aborts, and hang-up cancellation.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "rpc/channel.h"
#include "rpc/frame.h"
#include "rpc/server.h"

namespace smartdd {
namespace {

using rpc::CallPayload;
using rpc::Channel;
using rpc::ChannelOptions;
using rpc::DecodeState;
using rpc::Frame;
using rpc::FrameType;
using rpc::Responder;
using rpc::ResultPayload;
using rpc::Server;
using rpc::ServerOptions;
using rpc::StreamPayload;

// --- wire format ---------------------------------------------------------

TEST(RpcFrameTest, HandshakeRoundTrip) {
  std::string hs = rpc::EncodeHandshake();
  ASSERT_EQ(hs.size(), rpc::kHandshakeBytes);
  auto version = rpc::DecodeHandshake(hs);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, rpc::kProtocolVersion);
}

TEST(RpcFrameTest, HandshakeRejectsBadMagicAndVersions) {
  std::string hs = rpc::EncodeHandshake();
  std::string bad_magic = hs;
  bad_magic[0] = 'X';
  EXPECT_FALSE(rpc::DecodeHandshake(bad_magic).ok());

  EXPECT_FALSE(rpc::DecodeHandshake(rpc::EncodeHandshake(0)).ok());
  EXPECT_FALSE(
      rpc::DecodeHandshake(rpc::EncodeHandshake(rpc::kProtocolVersion + 1))
          .ok());
  EXPECT_FALSE(rpc::DecodeHandshake(hs.substr(0, 5)).ok());
}

TEST(RpcFrameTest, FrameRoundTripAndIncrementalDecode) {
  std::string wire;
  rpc::AppendFrame(wire, FrameType::kCall, 42, "hello");
  rpc::AppendFrame(wire, FrameType::kResult, 43, "");

  // Feed the bytes one at a time: the decoder must ask for more until a
  // whole frame is buffered, then consume exactly that frame.
  std::string buffer;
  std::vector<Frame> frames;
  for (char c : wire) {
    buffer.push_back(c);
    Frame frame;
    size_t consumed = 0;
    DecodeState state = rpc::DecodeFrame(buffer, &frame, &consumed, nullptr);
    if (state == DecodeState::kFrame) {
      buffer.erase(0, consumed);
      frames.push_back(std::move(frame));
    } else {
      ASSERT_EQ(state, DecodeState::kNeedMore);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kCall);
  EXPECT_EQ(frames[0].call_id, 42u);
  EXPECT_EQ(frames[0].payload, "hello");
  EXPECT_EQ(frames[1].type, FrameType::kResult);
  EXPECT_EQ(frames[1].call_id, 43u);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_TRUE(buffer.empty());
}

TEST(RpcFrameTest, DecodeRejectsOversizeAndUnknownType) {
  // Oversize length: header claims more than the payload cap.
  std::string wire;
  rpc::AppendFrame(wire, FrameType::kCall, 1, "x");
  std::string oversize = wire;
  oversize[3] = '\x7F';  // top length byte -> ~2 GiB
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(rpc::DecodeFrame(oversize, &frame, &consumed, &error),
            DecodeState::kError);
  EXPECT_NE(error.find("cap"), std::string::npos);

  std::string bad_type = wire;
  bad_type[4] = '\x63';
  EXPECT_EQ(rpc::DecodeFrame(bad_type, &frame, &consumed, &error),
            DecodeState::kError);
  EXPECT_NE(error.find("frame type"), std::string::npos);
}

TEST(RpcFrameTest, CallPayloadRoundTripAndValidation) {
  CallPayload call;
  call.wants_stream = true;
  call.deadline_ms = 123.5;
  call.line = "expand 00000000deadbeef 3";
  auto decoded = rpc::DecodeCallPayload(rpc::EncodeCallPayload(call));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->wants_stream);
  EXPECT_EQ(decoded->deadline_ms, 123.5);
  EXPECT_EQ(decoded->line, call.line);

  EXPECT_FALSE(rpc::DecodeCallPayload("").ok());  // truncated
  std::string bytes = rpc::EncodeCallPayload(call);
  bytes[0] = '\x04';  // unknown flag bit
  EXPECT_FALSE(rpc::DecodeCallPayload(bytes).ok());
  CallPayload nan_deadline;
  nan_deadline.deadline_ms = std::nan("");
  EXPECT_FALSE(
      rpc::DecodeCallPayload(rpc::EncodeCallPayload(nan_deadline)).ok());
}

TEST(RpcFrameTest, ResultPayloadRoundTripAndValidation) {
  ResultPayload result;
  result.code = StatusCode::kDeadlineExceeded;
  result.partial = true;
  result.has_tree = true;
  result.json = "{\"ok\":false}";
  auto decoded = rpc::DecodeResultPayload(rpc::EncodeResultPayload(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(decoded->partial);
  EXPECT_TRUE(decoded->has_tree);
  EXPECT_EQ(decoded->json, result.json);

  EXPECT_FALSE(rpc::DecodeResultPayload("x").ok());  // truncated
  std::string bytes = rpc::EncodeResultPayload(result);
  bytes[0] = '\x63';  // not a StatusCode
  EXPECT_FALSE(rpc::DecodeResultPayload(bytes).ok());
  bytes = rpc::EncodeResultPayload(result);
  bytes[1] = '\x08';  // unknown flag bit
  EXPECT_FALSE(rpc::DecodeResultPayload(bytes).ok());
}

TEST(RpcFrameTest, StreamPayloadRoundTrip) {
  StreamPayload step;
  step.seq = 7;
  step.json = "{\"id\":-1}";
  auto decoded = rpc::DecodeStreamPayload(rpc::EncodeStreamPayload(step));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seq, 7u);
  EXPECT_EQ(decoded->json, step.json);
  EXPECT_FALSE(rpc::DecodeStreamPayload("ab").ok());
}

// --- channel <-> server --------------------------------------------------

/// Echoes the request line back as the RESULT json.
void EchoHandler(const std::shared_ptr<Responder>& responder) {
  ResultPayload result;
  result.json = "echo:" + responder->line();
  responder->Finish(result);
}

struct RpcFixture {
  explicit RpcFixture(rpc::CallHandler handler, ServerOptions options = {})
      : server(std::move(handler), std::move(options)) {
    EXPECT_TRUE(server.Start().ok());
    ChannelOptions copts;
    copts.port = server.port();
    channel = std::make_unique<Channel>(copts);
  }

  Server server;
  std::unique_ptr<Channel> channel;
};

TEST(RpcChannelTest, UnaryCallRoundTrip) {
  RpcFixture fx(EchoHandler);
  auto result = fx.channel->Call("ping");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->code, StatusCode::kOk);
  EXPECT_EQ(result->json, "echo:ping");
  EXPECT_TRUE(fx.channel->connected());
}

TEST(RpcChannelTest, ConcurrentCallsMultiplexOnOneConnection) {
  RpcFixture fx(EchoHandler);
  constexpr int kThreads = 8;
  constexpr int kCallsEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kCallsEach; ++i) {
        std::string line = "msg-" + std::to_string(t * 1000 + i);
        auto result = fx.channel->Call(line);
        if (!result.ok() || result->json != "echo:" + line) failures += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // One multiplexed connection carried all of it.
  EXPECT_EQ(fx.server.open_connections(), 1u);
}

TEST(RpcChannelTest, StreamingDeliversStepsInOrderThenResult) {
  auto handler = [](const std::shared_ptr<Responder>& responder) {
    EXPECT_TRUE(responder->wants_stream());
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(responder->Stream("step-" + std::to_string(i)));
    }
    ResultPayload result;
    result.json = "done";
    responder->Finish(result);
  };
  RpcFixture fx(handler);
  std::vector<StreamPayload> steps;
  auto result = fx.channel->CallStream("go", Deadline(),
                                       [&](const StreamPayload& step) {
                                         steps.push_back(step);
                                         return true;
                                       });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->json, "done");
  ASSERT_EQ(steps.size(), 5u);
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].seq, i);
    EXPECT_EQ(steps[i].json, "step-" + std::to_string(i));
  }
}

TEST(RpcChannelTest, StreamCallbackFalseCancelsTheHandler) {
  std::atomic<int> streamed{0};
  std::atomic<bool> saw_cancel{false};
  auto handler = [&](const std::shared_ptr<Responder>& responder) {
    // Keep producing until the peer's CANCEL lands; Stream() must start
    // failing and cancelled() must flip within the bounded loop.
    for (int i = 0; i < 10000; ++i) {
      if (!responder->Stream("s")) {
        saw_cancel = true;
        break;
      }
      streamed += 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(responder->cancelled());
    ResultPayload result;
    result.partial = true;
    result.json = "cancelled";
    responder->Finish(result);
  };
  RpcFixture fx(handler);
  auto result = fx.channel->CallStream(
      "go", Deadline(), [](const StreamPayload&) { return false; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->json, "cancelled");
  EXPECT_TRUE(saw_cancel.load());
}

TEST(RpcChannelTest, DeadlinePropagatesIntoHandlerAndExpiresCall) {
  std::atomic<bool> handler_saw_budget{false};
  std::atomic<bool> handler_saw_expiry{false};
  auto handler = [&](const std::shared_ptr<Responder>& responder) {
    handler_saw_budget = responder->deadline().active();
    // Outlive the client's budget, polling like an engine chunk loop.
    for (int i = 0; i < 200 && !responder->deadline().expired(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    handler_saw_expiry = responder->deadline().expired();
    ResultPayload result;
    result.json = "late";
    responder->Finish(result);
  };
  RpcFixture fx(handler);
  auto result = fx.channel->Call("slow", Deadline::AfterMillis(100));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The handler observed the propagated budget and its expiry (via the
  // re-armed deadline or the CANCEL the expiring client sent).
  for (int i = 0; i < 100 && !handler_saw_expiry.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(handler_saw_budget.load());
  EXPECT_TRUE(handler_saw_expiry.load());
}

TEST(RpcChannelTest, AbandonedResponderAnswersInternal) {
  auto handler = [](const std::shared_ptr<Responder>& responder) {
    // Return without Finish: the Responder's destructor must answer.
    (void)responder;
  };
  RpcFixture fx(handler);
  auto result = fx.channel->Call("whoops");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->code, StatusCode::kInternal);
  EXPECT_NE(result->json.find("abandoned"), std::string::npos);
}

TEST(RpcChannelTest, DeadPeerFailsUnavailableAndRedialHeals) {
  ServerOptions sopts;
  auto fx = std::make_unique<RpcFixture>(EchoHandler, sopts);
  uint16_t port = fx->server.port();
  ASSERT_TRUE(fx->channel->Call("one").ok());

  // Abrupt stop = crash: the in-flight-free channel notices on next use.
  fx->server.Stop();
  auto down = fx->channel->Call("two");
  EXPECT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);

  // A replacement server on the same port heals the channel lazily.
  ServerOptions reopts;
  reopts.port = port;
  Server revived(EchoHandler, reopts);
  Status restarted = revived.Start();
  if (restarted.ok()) {  // port may have been grabbed meanwhile
    auto healed = fx->channel->Call("three");
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(healed->json, "echo:three");
    revived.Shutdown();
  }
}

TEST(RpcChannelTest, GracefulShutdownDrainsInFlightCall) {
  std::atomic<bool> release{false};
  auto handler = [&](const std::shared_ptr<Responder>& responder) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ResultPayload result;
    result.json = "drained";
    responder->Finish(result);
  };
  RpcFixture fx(handler);
  std::thread caller([&]() {
    auto result = fx.channel->Call("slow");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->json, "drained");
  });
  // Wait until the call is in flight, then shut down underneath it.
  for (int i = 0; i < 1000 && fx.server.inflight_calls() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(fx.server.inflight_calls(), 1u);
  std::thread releaser([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release = true;
  });
  fx.server.Shutdown();  // must wait for the RESULT to flush
  caller.join();
  releaser.join();
}

TEST(RpcChannelTest, GarbageGreetingIsRejected) {
  RpcFixture fx(EchoHandler);
  // A raw client speaking HTTP at the RPC port must be disconnected by the
  // handshake check, not crash the server.
  ChannelOptions copts;
  copts.port = fx.server.port();
  Channel probe(copts);
  ASSERT_TRUE(probe.Connect().ok());
  // (A well-formed peer for contrast; now the garbage one.)
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval recv_timeout{5, 0};  // a hung server fails the test, not CI
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
  const char kGarbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, kGarbage, sizeof(kGarbage) - 1, MSG_NOSIGNAL), 0);
  // Server closes on us: recv drains the greeting then hits EOF.
  char buf[256];
  ssize_t r;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    r = ::recv(fd, buf, sizeof(buf), 0);
  } while (r > 0 && std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(r, 0);
  ::close(fd);
  // The real peer is unaffected.
  EXPECT_TRUE(probe.Call("still-alive").ok());
}

// --- server connection handling -----------------------------------------

/// A raw TCP client of the server (no Channel): `rcvbuf` > 0 shrinks its
/// receive buffer before the connect, and recv gives up after 5 s so a hung
/// server fails the test, not CI.
int RawConnect(uint16_t port, int rcvbuf = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  timeval recv_timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Greets the server and sends one CALL on a raw connection.
void RawCall(int fd, uint64_t call_id, bool wants_stream) {
  CallPayload call;
  call.wants_stream = wants_stream;
  call.line = "go";
  std::string bytes = rpc::EncodeHandshake();
  rpc::AppendFrame(bytes, FrameType::kCall, call_id,
                   rpc::EncodeCallPayload(call));
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// Polls `done` every 5 ms for up to `ms`; returns its last value.
template <typename Pred>
bool WaitFor(Pred done, int ms = 5000) {
  for (int waited = 0; waited < ms && !done(); waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(RpcServerTest, SilentPeerLosesItsSlotAfterTheHandshakeBudget) {
  ServerOptions sopts;
  sopts.max_connections = 1;
  RpcFixture fx(EchoHandler, sopts);
  // A TCP peer that connects and never sends the handshake takes the only
  // slot...
  int silent = RawConnect(fx.server.port());
  ASSERT_TRUE(WaitFor([&]() { return fx.server.open_connections() == 1; }));
  // ...until the 2 s handshake budget runs out and the sweep closes it:
  // the peer reads the server's greeting, then EOF.
  EXPECT_TRUE(WaitFor([&]() { return fx.server.open_connections() == 0; }));
  char buf[64];
  EXPECT_EQ(::recv(silent, buf, sizeof(buf), MSG_WAITALL),
            static_cast<ssize_t>(rpc::kHandshakeBytes));
  EXPECT_EQ(::recv(silent, buf, sizeof(buf), 0), 0);
  ::close(silent);

  auto result = fx.channel->Call("ping");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->json, "echo:ping");
  EXPECT_EQ(fx.server.open_connections(), 1u);
  // A handshaken connection is never swept, however quiet it stays.
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  EXPECT_TRUE(fx.channel->connected());
  EXPECT_EQ(fx.server.open_connections(), 1u);
  EXPECT_TRUE(fx.channel->Call("still-here").ok());
}

TEST(RpcServerTest, ConnectionPastTheCapIsClosedWithoutAGreeting) {
  ServerOptions sopts;
  sopts.max_connections = 1;
  RpcFixture fx(EchoHandler, sopts);
  ASSERT_TRUE(fx.channel->Call("first").ok());
  int extra = RawConnect(fx.server.port());
  char buf[64];
  EXPECT_EQ(::recv(extra, buf, sizeof(buf), 0), 0);  // EOF, no handshake
  ::close(extra);
  auto result = fx.channel->Call("still-alive");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->json, "echo:still-alive");
  EXPECT_EQ(fx.server.open_connections(), 1u);
}

TEST(RpcServerTest, PeerThatStopsReadingIsAbortedAndItsCallCancelled) {
  std::atomic<bool> stream_refused{false};
  std::atomic<bool> saw_cancel{false};
  std::atomic<bool> done{false};
  auto handler = [&](const std::shared_ptr<Responder>& responder) {
    const std::string chunk(16 * 1024, 'x');
    // The peer never reads: the socket buffers fill, then the server-side
    // backlog passes max_out_buffer_bytes and Stream() must refuse.
    for (int i = 0; i < 100000 && !stream_refused.load(); ++i) {
      if (!responder->Stream(chunk)) stream_refused = true;
    }
    saw_cancel = responder->cancelled();
    responder->Finish(ResultPayload{});
    done = true;
  };
  ServerOptions sopts;
  sopts.max_out_buffer_bytes = 64 * 1024;
  RpcFixture fx(handler, sopts);
  int fd = RawConnect(fx.server.port(), /*rcvbuf=*/4096);
  RawCall(fd, /*call_id=*/1, /*wants_stream=*/true);
  ASSERT_TRUE(WaitFor([&]() { return done.load(); }, 10000));
  EXPECT_TRUE(stream_refused.load());
  EXPECT_TRUE(saw_cancel.load());
  // The connection is aborted, not left holding its backlog.
  EXPECT_TRUE(WaitFor([&]() { return fx.server.open_connections() == 0; }));
  EXPECT_EQ(fx.server.inflight_calls(), 0u);
  ::close(fd);
}

TEST(RpcServerTest, HangUpMidCallCancelsTheRunningCall) {
  std::atomic<bool> running{false};
  std::atomic<bool> saw_cancel{false};
  std::atomic<bool> saw_expiry{false};
  std::atomic<bool> done{false};
  auto handler = [&](const std::shared_ptr<Responder>& responder) {
    running = true;
    // Poll like an engine chunk loop until the hang-up lands.
    for (int i = 0; i < 1000 && !responder->cancelled(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    saw_cancel = responder->cancelled();
    saw_expiry = responder->deadline().expired();
    responder->Finish(ResultPayload{});
    done = true;
  };
  RpcFixture fx(handler);
  int fd = RawConnect(fx.server.port());
  RawCall(fd, /*call_id=*/1, /*wants_stream=*/false);
  ASSERT_TRUE(WaitFor([&]() { return running.load(); }));
  ::close(fd);
  ASSERT_TRUE(WaitFor([&]() { return done.load(); }, 10000));
  EXPECT_TRUE(saw_cancel.load());
  EXPECT_TRUE(saw_expiry.load());
  EXPECT_TRUE(WaitFor([&]() { return fx.server.open_connections() == 0; }));
}

TEST(RpcChannelTest, FaultPointsInjectCleanFailures) {
  RpcFixture fx(EchoHandler);
  ASSERT_TRUE(fx.channel->Call("warm").ok());

  FaultRegistry& faults = FaultRegistry::Default();

  // Client-side send fault: fails before any bytes go out.
  faults.ArmError("rpc.client.send", Status::Unavailable("injected"), 1);
  auto send_fault = fx.channel->Call("doomed");
  EXPECT_FALSE(send_fault.ok());
  EXPECT_EQ(send_fault.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(fx.channel->Call("recovered").ok());

  // Server-side dispatch fault: arrives as a coded envelope RESULT, not a
  // transport failure.
  faults.ArmError("rpc.server.dispatch", Status::Unavailable("injected"), 1);
  auto dispatch_fault = fx.channel->Call("shed");
  ASSERT_TRUE(dispatch_fault.ok()) << dispatch_fault.status().ToString();
  EXPECT_EQ(dispatch_fault->code, StatusCode::kUnavailable);
  EXPECT_NE(dispatch_fault->json.find("UNAVAILABLE"), std::string::npos);
  EXPECT_TRUE(fx.channel->Call("recovered-again").ok());
  faults.DisarmAll();
}

}  // namespace
}  // namespace smartdd
