// Tests for endpoints, transports (in-process and TCP), link shaping,
// RPC, and the SOAP codec.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/clock.h"
#include "src/net/endpoint.h"
#include "src/net/inproc.h"
#include "src/net/rpc.h"
#include "src/net/soap.h"
#include "src/net/tcp.h"
#include "src/xdr/codec.h"
#include "tests/test_scaling.h"

namespace griddles::net {
namespace {

TEST(EndpointTest, ParsesInproc) {
  auto ep = Endpoint::parse("inproc://dione/gns");
  ASSERT_TRUE(ep.is_ok());
  EXPECT_EQ(ep->scheme, "inproc");
  EXPECT_EQ(ep->host, "dione");
  EXPECT_EQ(ep->service, "gns");
  EXPECT_EQ(ep->to_string(), "inproc://dione/gns");
}

TEST(EndpointTest, ParsesTcp) {
  auto ep = Endpoint::parse("tcp://127.0.0.1:9031");
  ASSERT_TRUE(ep.is_ok());
  EXPECT_TRUE(ep->is_tcp());
  EXPECT_EQ(ep->port().value(), 9031);
  EXPECT_EQ(ep->to_string(), "tcp://127.0.0.1:9031");
}

TEST(EndpointTest, RejectsMalformed) {
  EXPECT_FALSE(Endpoint::parse("dione/gns").is_ok());
  EXPECT_FALSE(Endpoint::parse("inproc://nohost").is_ok());
  EXPECT_FALSE(Endpoint::parse("tcp://1.2.3.4").is_ok());
  EXPECT_FALSE(Endpoint::parse("tcp://h:99999").is_ok());
}

TEST(InProcTest, ConnectSendReceive) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");

  auto listener = server_t->listen(inproc_endpoint("dione", "echo"));
  ASSERT_TRUE(listener.is_ok());

  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    auto msg = (*conn)->recv();
    ASSERT_TRUE(msg.is_ok());
    ASSERT_TRUE((*conn)->send(*msg).is_ok());
  });

  auto conn = client_t->connect(inproc_endpoint("dione", "echo"));
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE((*conn)->send(as_bytes_view("ping")).is_ok());
  auto reply = (*conn)->recv();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(to_string(*reply), "ping");
  server.join();
}

TEST(InProcTest, ConnectToMissingServiceFails) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  auto conn = transport->connect(inproc_endpoint("dione", "ghost"));
  EXPECT_FALSE(conn.is_ok());
  EXPECT_EQ(conn.status().code(), ErrorCode::kUnavailable);
}

TEST(InProcTest, DuplicateBindRejected) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  auto first = transport->listen(inproc_endpoint("dione", "svc"));
  ASSERT_TRUE(first.is_ok());
  auto second = transport->listen(inproc_endpoint("dione", "svc"));
  EXPECT_FALSE(second.is_ok());
  (*first)->close();
}

TEST(InProcTest, RecvTimesOut) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  auto listener = transport->listen(inproc_endpoint("dione", "slow"));
  ASSERT_TRUE(listener.is_ok());
  auto conn = transport->connect(inproc_endpoint("dione", "slow"));
  ASSERT_TRUE(conn.is_ok());
  auto got = (*conn)->recv_until(WallClock::now() +
                                 std::chrono::milliseconds(30));
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kTimeout);
}

TEST(InProcTest, CloseUnblocksReceiver) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  auto listener = transport->listen(inproc_endpoint("dione", "c"));
  ASSERT_TRUE(listener.is_ok());
  auto client = transport->connect(inproc_endpoint("dione", "c"));
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (*client)->close();
  });
  auto got = (*server)->recv();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kClosed);
  closer.join();
}

TEST(LinkModelTest, TransmitTimeScalesWithSize) {
  LinkModel model;
  model.bandwidth_bytes_per_sec = 1e6;
  model.latency = std::chrono::milliseconds(10);
  EXPECT_EQ(model.transmit_time(1000000), std::chrono::seconds(1));
}

TEST(LinkModelTest, ShaperSerializesMessages) {
  LinkModel model;
  model.bandwidth_bytes_per_sec = 1000;  // 1 KB/s
  model.latency = from_seconds_d(0.5);
  LinkShaper shaper(model);
  // Two 1000-byte messages sent at t=0: first arrives at 1.5s, second
  // queues behind it and arrives at 2.5s.
  const Duration first = shaper.arrival_time(Duration::zero(), 1000);
  const Duration second = shaper.arrival_time(Duration::zero(), 1000);
  EXPECT_NEAR(to_seconds_d(first), 1.5, 1e-9);
  EXPECT_NEAR(to_seconds_d(second), 2.5, 1e-9);
}

TEST(LinkTableTest, SymmetricAndDefault) {
  LinkTable table;
  LinkModel wan;
  wan.latency = from_seconds_d(0.1);
  table.set_link("a", "b", wan);
  EXPECT_EQ(table.lookup("a", "b").latency, from_seconds_d(0.1));
  EXPECT_EQ(table.lookup("b", "a").latency, from_seconds_d(0.1));
  EXPECT_EQ(table.lookup("a", "c").latency, Duration::zero());
  EXPECT_EQ(table.lookup("a", "a").latency, Duration::zero());
}

TEST(InProcTest, ScaledLinkDelaysDelivery) {
  // 1 model second = 5 wall ms. Link latency 2 model seconds.
  ScaledClock clock(0.005);
  InProcNetwork network(clock);
  LinkModel model;
  model.latency = std::chrono::seconds(2);
  network.links().set_link("a", "b", model);
  auto ta = network.transport("a");
  auto tb = network.transport("b");
  auto listener = tb->listen(inproc_endpoint("b", "svc"));
  ASSERT_TRUE(listener.is_ok());
  auto client = ta->connect(inproc_endpoint("b", "svc"));
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  const Duration sent_at = clock.now();
  ASSERT_TRUE((*client)->send(as_bytes_view("x")).is_ok());
  auto got = (*server)->recv();
  ASSERT_TRUE(got.is_ok());
  const double elapsed_model = to_seconds_d(clock.now() - sent_at);
  EXPECT_GE(elapsed_model, 1.9);
  EXPECT_LT(elapsed_model, 10.0);
}

TEST(InProcTest, ParallelConnectionsShareOneLink) {
  // Two concurrent bulk sends between the same host pair must divide
  // the link's bandwidth, not each get a full copy of it (this is what
  // keeps GridFTP-style parallel streams honest on a modelled WAN).
  // 1 model s = 10 wall ms, so connect/thread overhead (~2 ms wall)
  // stays small against the 2-model-second transfers under test
  // (sanitizer builds run the clock slower for the same reason).
  ScaledClock clock(0.01 * test_support::kClockScale);
  InProcNetwork network(clock);
  LinkModel model;
  model.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  network.links().set_link("a", "b", model);
  auto ta = network.transport("a");
  auto tb = network.transport("b");
  auto listener = tb->listen(inproc_endpoint("b", "bulk"));
  ASSERT_TRUE(listener.is_ok());

  auto run_transfer = [&](Bytes payload) {
    auto client = ta->connect(inproc_endpoint("b", "bulk"));
    ASSERT_TRUE(client.is_ok());
    auto server = (*listener)->accept();
    ASSERT_TRUE(server.is_ok());
    std::thread sender([&, payload = std::move(payload)] {
      ASSERT_TRUE((*client)->send(payload).is_ok());
    });
    auto got = (*server)->recv();
    ASSERT_TRUE(got.is_ok());
    sender.join();
  };

  // Single 2 MB transfer: ~2 model seconds.
  const Duration solo_start = clock.now();
  run_transfer(Bytes(2000000));
  const double solo = to_seconds_d(clock.now() - solo_start);
  EXPECT_NEAR(solo, 2.0, 1.0);

  // Two concurrent 2 MB transfers: the shared link serializes them to
  // ~4 model seconds total (per-connection shapers would finish in ~2).
  const Duration pair_start = clock.now();
  std::thread other([&] { run_transfer(Bytes(2000000)); });
  run_transfer(Bytes(2000000));
  other.join();
  const double pair = to_seconds_d(clock.now() - pair_start);
  EXPECT_GT(pair, 3.2);
}

TEST(InProcTest, LinkWeatherChangeAffectsLiveConnections) {
  ScaledClock clock(0.001);
  InProcNetwork network(clock);
  LinkModel fast;
  fast.bandwidth_bytes_per_sec = 100e6;
  network.links().set_link("a", "b", fast);
  auto ta = network.transport("a");
  auto tb = network.transport("b");
  auto listener = tb->listen(inproc_endpoint("b", "w"));
  ASSERT_TRUE(listener.is_ok());
  auto client = ta->connect(inproc_endpoint("b", "w"));
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  // Fast round first.
  ASSERT_TRUE((*client)->send(Bytes(1000000)).is_ok());
  ASSERT_TRUE((*server)->recv().is_ok());

  // The link degrades mid-connection; the SAME connection slows down.
  LinkModel slow;
  slow.bandwidth_bytes_per_sec = 0.5e6;  // 2 model s for 1 MB
  network.links().set_link("a", "b", slow);
  const Duration start = clock.now();
  std::thread sender([&] { ASSERT_TRUE((*client)->send(Bytes(1000000)).is_ok()); });
  ASSERT_TRUE((*server)->recv().is_ok());
  sender.join();
  EXPECT_GT(to_seconds_d(clock.now() - start), 1.2);
}

TEST(LinkTableTest, VersionBumpsOnMutation) {
  LinkTable table;
  const auto v0 = table.version();
  table.set_link("a", "b", LinkModel{});
  EXPECT_GT(table.version(), v0);
  const auto v1 = table.version();
  table.set_default(LinkModel{});
  EXPECT_GT(table.version(), v1);
}

TEST(TcpTest, LoopbackEcho) {
  TcpTransport transport;
  auto listener = transport.listen(tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(listener.is_ok());
  const Endpoint bound = (*listener)->bound_endpoint();
  EXPECT_GT(bound.port().value(), 0);

  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    auto msg = (*conn)->recv();
    ASSERT_TRUE(msg.is_ok());
    ASSERT_TRUE((*conn)->send(*msg).is_ok());
  });

  auto conn = transport.connect(bound);
  ASSERT_TRUE(conn.is_ok());
  Bytes big(100000, std::byte{0x5A});
  ASSERT_TRUE((*conn)->send(big).is_ok());
  auto reply = (*conn)->recv();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(*reply, big);
  server.join();
}

TEST(TcpTest, RecvTimesOut) {
  TcpTransport transport;
  auto listener = transport.listen(tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(listener.is_ok());
  auto conn = transport.connect((*listener)->bound_endpoint());
  ASSERT_TRUE(conn.is_ok());
  auto got = (*conn)->recv_until(WallClock::now() +
                                 std::chrono::milliseconds(50));
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kTimeout);
}

TEST(TcpTest, ConnectRefused) {
  TcpTransport transport;
  // Grab an ephemeral port, close it, then dial it.
  auto listener = transport.listen(tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(listener.is_ok());
  const Endpoint bound = (*listener)->bound_endpoint();
  (*listener)->close();
  auto conn = transport.connect(bound);
  EXPECT_FALSE(conn.is_ok());
}

TEST(SoapTest, Base64RoundTrip) {
  for (const std::string text :
       {"", "a", "ab", "abc", "abcd", "hello grid world"}) {
    auto decoded = base64_decode(base64_encode(as_bytes_view(text)));
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(to_string(*decoded), text);
  }
  EXPECT_FALSE(base64_decode("not*base64!").is_ok());
}

TEST(SoapTest, FrameRoundTrip) {
  RpcFrame frame;
  frame.kind = FrameKind::kResponse;
  frame.id = 12345;
  frame.method = 7;
  frame.status = not_found("no <such> & channel");
  frame.payload = to_bytes("binary \x01\x02 payload");
  auto decoded = soap_decode(soap_encode(frame));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->kind, frame.kind);
  EXPECT_EQ(decoded->id, frame.id);
  EXPECT_EQ(decoded->method, frame.method);
  EXPECT_EQ(decoded->status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(decoded->status.message(), "no <such> & channel");
  EXPECT_EQ(decoded->payload, frame.payload);
}

TEST(SoapTest, RejectsMalformedEnvelope) {
  EXPECT_FALSE(soap_decode(as_bytes_view("<xml>nope</xml>")).is_ok());
}

TEST(RpcFrameTest, BinaryRoundTrip) {
  RpcFrame frame;
  frame.kind = FrameKind::kRequest;
  frame.id = 99;
  frame.method = 3;
  frame.payload = to_bytes("req");
  auto decoded = decode_frame(encode_frame(frame, WireFormat::kBinary),
                              WireFormat::kBinary);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->id, 99u);
  EXPECT_EQ(decoded->method, 3);
  EXPECT_EQ(to_string(decoded->payload), "req");
}

class RpcTest : public ::testing::TestWithParam<WireFormat> {};

TEST_P(RpcTest, CallAndHandlerError) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");

  RpcServer server(*server_t, inproc_endpoint("dione", "svc"), GetParam());
  server.register_method(1, [](ByteSpan request, const RpcContext&)
                                -> Result<Bytes> {
    Bytes out(request.begin(), request.end());
    std::reverse(out.begin(), out.end());
    return out;
  });
  server.register_method(2, [](ByteSpan, const RpcContext&)
                                -> Result<Bytes> {
    return not_found("nothing here");
  });
  ASSERT_TRUE(server.start().is_ok());

  RpcClient client(*client_t, server.endpoint(), GetParam());
  auto reply = client.call(1, as_bytes_view("abc"));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(to_string(*reply), "cba");

  auto error = client.call(2, {});
  EXPECT_FALSE(error.is_ok());
  EXPECT_EQ(error.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(error.status().message(), "nothing here");

  auto missing = client.call(42, {});
  EXPECT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kUnimplemented);

  server.stop();
}

INSTANTIATE_TEST_SUITE_P(WireFormats, RpcTest,
                         ::testing::Values(WireFormat::kBinary,
                                           WireFormat::kSoap),
                         [](const auto& info) {
                           return info.param == WireFormat::kBinary
                                      ? "Binary"
                                      : "Soap";
                         });

TEST(RpcServerTest, ManyConcurrentClients) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  RpcServer server(*server_t, inproc_endpoint("dione", "adder"));
  server.register_method(1, [](ByteSpan request, const RpcContext&)
                                -> Result<Bytes> {
    xdr::Decoder dec(request);
    GL_ASSIGN_OR_RETURN(const std::uint64_t v, dec.u64());
    xdr::Encoder enc;
    enc.put_u64(v + 1);
    return std::move(enc).take();
  });
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kThreads = 8;
  constexpr int kCalls = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto transport = network.transport("jagan");
      RpcClient client(*transport, server.endpoint());
      for (int i = 0; i < kCalls; ++i) {
        xdr::Encoder enc;
        enc.put_u64(static_cast<std::uint64_t>(t * kCalls + i));
        auto reply = client.call(1, enc.buffer());
        if (!reply.is_ok()) {
          ++failures;
          continue;
        }
        xdr::Decoder dec(*reply);
        if (dec.u64().value() !=
            static_cast<std::uint64_t>(t * kCalls + i) + 1) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures, 0);
  server.stop();
}

TEST(RpcServerTest, StopUnblocksAndRejects) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  auto server = std::make_unique<RpcServer>(
      *server_t, inproc_endpoint("dione", "stoppable"));
  server->register_method(1, [](ByteSpan, const RpcContext&)
                                 -> Result<Bytes> { return Bytes{}; });
  ASSERT_TRUE(server->start().is_ok());
  RpcClient client(*client_t, server->endpoint());
  ASSERT_TRUE(client.call(1, {}).is_ok());
  server->stop();
  auto after = client.call(1, {});
  EXPECT_FALSE(after.is_ok());
}

TEST(RpcOverTcpTest, EndToEnd) {
  TcpTransport transport;
  RpcServer server(transport, tcp_endpoint("127.0.0.1", 0));
  server.register_method(9, [](ByteSpan request, const RpcContext&)
                                -> Result<Bytes> {
    return Bytes(request.begin(), request.end());
  });
  ASSERT_TRUE(server.start().is_ok());
  RpcClient client(transport, server.endpoint());
  auto reply = client.call(9, as_bytes_view("over tcp"));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(to_string(*reply), "over tcp");
  server.stop();
}

// ---------------------------------------------------------------------------
// Wire-format golden bytes. The binary frame layout fixes the message
// sizes the link model charges and every paper table derives from them,
// so buffer-ownership changes inside the RPC layer must leave these
// bytes exactly as they are.

std::string hex(ByteSpan bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out.push_back(kDigits[static_cast<unsigned>(b) >> 4]);
    out.push_back(kDigits[static_cast<unsigned>(b) & 0xF]);
  }
  return out;
}

RpcFrame golden_request() {
  RpcFrame frame;
  frame.kind = FrameKind::kRequest;
  frame.id = 258;
  frame.method = 7;
  frame.trace_id = 0x1122334455667788ULL;
  frame.span_id = 0x0a0b0c0d0e0f1011ULL;
  frame.deadline_us = 250000;
  frame.payload = to_bytes("grid");
  return frame;
}

RpcFrame golden_response() {
  RpcFrame frame;
  frame.kind = FrameKind::kResponse;
  frame.id = 258;
  frame.method = 7;
  frame.trace_id = 0x1122334455667788ULL;
  frame.span_id = 0x0a0b0c0d0e0f1011ULL;
  frame.status = not_found("no such <file> & dir");
  return frame;
}

// kind | id | method | trace | span | deadline | status code, text | payload
constexpr std::string_view kGoldenRequestHex =
    "00" "0000000000000102" "0007" "1122334455667788" "0a0b0c0d0e0f1011"
    "000000000003d090" "00000000" "00000000" "00000004" "67726964";
constexpr std::string_view kGoldenResponseHex =
    "01" "0000000000000102" "0007" "1122334455667788" "0a0b0c0d0e0f1011"
    "0000000000000000" "00000002" "00000014"
    "6e6f2073756368203c66696c653e20262064697200000000";

TEST(WireGoldenTest, BinaryFramesArePinned) {
  EXPECT_EQ(hex(encode_frame(golden_request(), WireFormat::kBinary)),
            kGoldenRequestHex);
  EXPECT_EQ(hex(encode_frame(golden_response(), WireFormat::kBinary)),
            kGoldenResponseHex);

  auto request = decode_frame(encode_frame(golden_request(),
                                           WireFormat::kBinary),
                              WireFormat::kBinary);
  ASSERT_TRUE(request.is_ok());
  EXPECT_EQ(request->kind, FrameKind::kRequest);
  EXPECT_EQ(request->id, 258u);
  EXPECT_EQ(request->method, 7);
  EXPECT_EQ(request->trace_id, 0x1122334455667788ULL);
  EXPECT_EQ(request->span_id, 0x0a0b0c0d0e0f1011ULL);
  EXPECT_EQ(request->deadline_us, 250000u);
  EXPECT_TRUE(request->status.is_ok());
  EXPECT_EQ(to_string(request->payload), "grid");

  auto response = decode_frame(encode_frame(golden_response(),
                                            WireFormat::kBinary),
                               WireFormat::kBinary);
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->kind, FrameKind::kResponse);
  EXPECT_EQ(response->status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(response->status.message(), "no such <file> & dir");
  EXPECT_TRUE(response->payload.empty());
}

TEST(WireGoldenTest, SoapFramesArePinned) {
  const std::string header =
      "<?xml version=\"1.0\"?><soap:Envelope "
      "xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" "
      "xmlns:gl=\"urn:griddles\"><soap:Header>";
  EXPECT_EQ(to_string(soap_encode(golden_request())),
            header +
                "<gl:kind>request</gl:kind><gl:id>258</gl:id>"
                "<gl:method>7</gl:method><gl:trace>1234605616436508552"
                "</gl:trace><gl:span>723685415333072913</gl:span>"
                "<gl:deadline>250000</gl:deadline><gl:status>0</gl:status>"
                "<gl:statusText></gl:statusText></soap:Header><soap:Body>"
                "<gl:payload>Z3JpZA==</gl:payload></soap:Body>"
                "</soap:Envelope>");
  EXPECT_EQ(to_string(soap_encode(golden_response())),
            header +
                "<gl:kind>response</gl:kind><gl:id>258</gl:id>"
                "<gl:method>7</gl:method><gl:trace>1234605616436508552"
                "</gl:trace><gl:span>723685415333072913</gl:span>"
                "<gl:deadline>0</gl:deadline><gl:status>2</gl:status>"
                "<gl:statusText>no such &lt;file&gt; &amp; dir"
                "</gl:statusText></soap:Header><soap:Body><gl:payload>"
                "</gl:payload></soap:Body></soap:Envelope>");
}

/// What a live RpcClient and RpcServer put on the wire, captured by a raw
/// peer on each transport: the same bytes as the pinned codec output.
void expect_live_wire_bytes(Transport& transport, const Endpoint& raw_bind,
                            const Endpoint& server_bind,
                            WireFormat format) {
  // Client side: an untraced call without a deadline is frame id 1.
  auto listener = transport.listen(raw_bind);
  ASSERT_TRUE(listener.is_ok());
  std::thread peer([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    auto request = (*conn)->recv();
    ASSERT_TRUE(request.is_ok());
    RpcFrame want;
    want.id = 1;
    want.method = 7;
    want.payload = to_bytes("grid");
    EXPECT_EQ(hex(*request), hex(encode_frame(want, format)));
    RpcFrame reply = golden_response();
    reply.id = 1;
    ASSERT_TRUE((*conn)->send(encode_frame(reply, format)).is_ok());
    auto closed = (*conn)->recv();
    EXPECT_FALSE(closed.is_ok());
  });
  {
    RpcClient client(transport, (*listener)->bound_endpoint(), format);
    auto reply = client.call(7, as_bytes_view("grid"));
    EXPECT_EQ(reply.status().code(), ErrorCode::kNotFound);
    EXPECT_EQ(reply.status().message(), "no such <file> & dir");
  }
  peer.join();
  (*listener)->close();

  // Server side: the golden request in, the handler's reply out.
  RpcServer server(transport, server_bind, format);
  server.register_method(7, [](ByteSpan request, const RpcContext&)
                                -> Result<Bytes> {
    EXPECT_EQ(to_string(request), "grid");
    return to_bytes("ok");
  });
  ASSERT_TRUE(server.start().is_ok());
  auto conn = transport.connect(server.endpoint());
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(
      (*conn)->send(encode_frame(golden_request(), format)).is_ok());
  auto reply = (*conn)->recv();
  ASSERT_TRUE(reply.is_ok());
  RpcFrame want;
  want.kind = FrameKind::kResponse;
  want.id = 258;
  want.method = 7;
  want.payload = to_bytes("ok");
  EXPECT_EQ(hex(*reply), hex(encode_frame(want, format)));
  if (format == WireFormat::kBinary) {
    EXPECT_EQ(hex(*reply),
              "01" "0000000000000102" "0007" "0000000000000000"
              "0000000000000000" "0000000000000000" "00000000" "00000000"
              "00000002" "6f6b");
  }
  (*conn)->close();
  server.stop();
}

TEST(WireGoldenTest, LiveInProcBytesMatch) {
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kSoap}) {
    RealClock clock;
    InProcNetwork network(clock);
    auto transport = network.transport("dione");
    expect_live_wire_bytes(*transport, inproc_endpoint("dione", "raw"),
                           inproc_endpoint("dione", "rpc"), format);
  }
}

TEST(WireGoldenTest, LiveTcpBytesMatch) {
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kSoap}) {
    TcpTransport transport;
    expect_live_wire_bytes(transport, tcp_endpoint("127.0.0.1", 0),
                           tcp_endpoint("127.0.0.1", 0), format);
  }
}

// ---------------------------------------------------------------------------
// Owned sends. A connection shares the Buffer it is handed; what arrives
// must be byte-identical to a plain send of the same bytes.

Bytes numbered(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(i * 31 + 5);
  }
  return out;
}

void expect_owned_sends_match_plain(Transport& transport,
                                    const Endpoint& bind) {
  auto listener = transport.listen(bind);
  ASSERT_TRUE(listener.is_ok());
  auto client = transport.connect((*listener)->bound_endpoint());
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  const Bytes message = numbered(100000);
  Bytes padded(message.size() + 20, std::byte{0xff});
  std::copy(message.begin(), message.end(), padded.begin() + 7);
  MutableByteSpan head;
  Buffer framed = Buffer(ByteSpan(message).subspan(3)).grow_front(3, head);
  std::copy(message.begin(), message.begin() + 3, head.begin());

  std::vector<Buffer> sends;
  sends.emplace_back(ByteSpan(message));                  // plain (copied)
  sends.emplace_back(Bytes(message));                     // owned, adopted
  sends.push_back(Buffer(std::move(padded)).slice(7, message.size()));
  sends.push_back(std::move(framed));                     // head grown in place
  for (std::size_t i = 0; i < sends.size(); ++i) {
    ASSERT_TRUE((*client)->send(sends[i]).is_ok());
    auto got = (*server)->recv();
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(Bytes(got->begin(), got->end()), message) << "send " << i;
  }
  sends.clear();  // the receiver's copies stand alone
  (*client)->close();
  (*server)->close();
}

TEST(OwnedSendTest, MatchesPlainSendInProc) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  expect_owned_sends_match_plain(*transport, inproc_endpoint("dione", "s"));
}

TEST(OwnedSendTest, MatchesPlainSendTcp) {
  TcpTransport transport;
  expect_owned_sends_match_plain(transport, tcp_endpoint("127.0.0.1", 0));
}

TEST(OwnedSendTest, TcpRejectsMessagesOverTheCap) {
  TcpTransport transport;
  auto listener = transport.listen(tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(listener.is_ok());
  auto client = transport.connect((*listener)->bound_endpoint());
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());
  // Never written: the send is refused before any byte is read.
  MutableByteSpan unused;
  const Buffer huge = Buffer::uninitialized(kMaxTcpMessageBytes + 1, unused);
  const Status refused = (*client)->send(huge);
  EXPECT_EQ(refused.code(), ErrorCode::kInvalidArgument);
  // The connection stays usable.
  ASSERT_TRUE((*client)->send(as_bytes_view("after")).is_ok());
  auto got = (*server)->recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(*got), "after");
}

}  // namespace
}  // namespace griddles::net
