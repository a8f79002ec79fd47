// Protocol-level robustness: what the server does when peers misbehave
// (wrong versions, requests before Hello, raw garbage) — the connection and
// the other clients must survive all of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "dist/client.hpp"
#include "dist/server.hpp"
#include "dist/wire.hpp"
#include "net/bulk.hpp"
#include "tests/toy_problem.hpp"

namespace hdcs::dist {
namespace {

using test::ToySumDataManager;

ServerConfig server_config() {
  ServerConfig cfg;
  cfg.scheduler.bounds.min_ops = 1000;
  cfg.policy_spec = "adaptive:0.05";
  cfg.tick_interval_s = 0.05;
  cfg.no_work_retry_s = 0.02;
  test::register_toy_algorithm();
  return cfg;
}

net::TcpStream connect_to(const Server& server) {
  return net::TcpStream::connect("127.0.0.1", server.port());
}

TEST(ProtocolEdges, FetchUnknownProblemGetsErrorFrameNotDisconnect) {
  Server server(server_config());
  server.start();
  auto stream = connect_to(server);

  // FetchProblemData (type 5, a problem id) was retired in protocol v10 and
  // its number is not reused: a peer that still asks for a problem that
  // way is answered Error like any unexpected request, not dropped.
  net::Message fetch;
  fetch.type = static_cast<net::MessageType>(5);
  fetch.correlation = 1;
  ByteWriter w;
  w.u64(999);
  fetch.payload = w.take();
  net::write_message(stream, fetch);
  auto reply = net::read_message(stream);
  EXPECT_EQ(reply.type, net::MessageType::kError);
  EXPECT_EQ(reply.correlation, 1u);

  // The connection is still usable afterwards.
  net::write_message(stream, encode_hello({"late-hello", 1e6}, 2));
  auto ack = decode_hello_ack(net::read_message(stream));
  EXPECT_GT(ack.client_id, 0u);
  server.stop();
}

TEST(ProtocolEdges, RequestWorkWithoutHelloGetsErrorFrame) {
  Server server(server_config());
  server.start();
  server.submit_problem(std::make_shared<ToySumDataManager>(1000));
  auto stream = connect_to(server);

  net::write_message(stream, encode_request_work(1));
  auto reply = net::read_message(stream);
  EXPECT_EQ(reply.type, net::MessageType::kError);
  EXPECT_EQ(reply.correlation, 1u);

  // An Error reply does not drop the connection: it is still usable, and
  // a Hello on it now registers a donor.
  net::write_message(stream, encode_hello({"late-hello", 1e6}, 2));
  auto ack = decode_hello_ack(net::read_message(stream));
  EXPECT_GT(ack.client_id, 0u);
  server.stop();
}

TEST(ProtocolEdges, WrongProtocolVersionRejected) {
  Server server(server_config());
  server.start();

  // A frame from a newer dialect (full 24-byte header: the payload_len and
  // payload_crc fields are present but never reached).
  ByteWriter w;
  w.u32(net::kMagic);
  w.u16(net::kProtocolVersion + 1);
  w.u16(static_cast<std::uint16_t>(net::MessageType::kHello));
  w.u64(1);
  w.u32(0);
  w.u32(0);
  // A well-formed Hello (valid length and payload CRC) from an older
  // dialect: only the version field is wrong.
  auto older = net::encode_frame(encode_hello({"old-donor", 1e6}, 1));
  ByteWriter version;
  version.u16(net::kProtocolVersion - 1);
  std::copy(version.data().begin(), version.data().end(), older.begin() + 4);

  for (const std::vector<std::byte>& frame : {w.take(), older}) {
    auto stream = connect_to(server);
    stream.send_all(frame);
    // No HelloAck: the server drops the connection (ProtocolError path),
    // so our next read EOFs.
    std::vector<std::byte> buf(1);
    EXPECT_EQ(stream.recv_some(buf), 0u);
  }
  EXPECT_TRUE(server.client_stats().empty());
  server.stop();
}

TEST(ProtocolEdges, GarbageBytesDropOnlyThatConnection) {
  Server server(server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(500000);
  auto pid = server.submit_problem(dm);

  // One vandal connection spews garbage...
  {
    auto vandal = connect_to(server);
    std::vector<std::byte> junk(64, std::byte{0x33});
    vandal.send_all(junk);
    std::vector<std::byte> buf(1);
    EXPECT_EQ(vandal.recv_some(buf), 0u);  // dropped
  }
  // ...while a well-behaved client finishes the problem normally.
  ClientConfig ccfg;
  ccfg.server_port = server.port();
  ccfg.name = "good-citizen";
  Client(ccfg).run();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  server.stop();
}

TEST(ProtocolEdges, MalformedPayloadGetsErrorFrame) {
  Server server(server_config());
  server.start();
  auto stream = connect_to(server);

  // A Hello frame whose payload is truncated mid-string.
  net::Message msg;
  msg.type = net::MessageType::kHello;
  msg.correlation = 7;
  ByteWriter w;
  w.u32(1000);  // claims a 1000-byte name but provides none
  msg.payload = w.take();
  net::write_message(stream, msg);
  auto reply = net::read_message(stream);
  EXPECT_EQ(reply.type, net::MessageType::kError);
  EXPECT_EQ(reply.correlation, 7u);
  server.stop();
}

TEST(ProtocolEdges, KeepaliveOnUnregisteredConnectionGetsNoReply) {
  Server server(server_config());
  server.start();
  auto stream = connect_to(server);
  // A keepalive is one-way, from a registered donor or not. Replies keep
  // request order, so had it drawn one (or dropped the connection), the
  // stats request behind it could not be the first thing answered.
  net::Message beat;
  beat.type = net::MessageType::kHeartbeat;
  beat.correlation = 1;
  net::write_message(stream, beat);
  net::write_message(stream, encode_fetch_stats({false}, 2));
  auto reply = net::read_message(stream);
  EXPECT_EQ(reply.type, net::MessageType::kStatsSnapshot);
  EXPECT_EQ(reply.correlation, 2u);
  server.stop();
}

TEST(ProtocolEdges, SubmitResultForForeignProblemRejectedGracefully) {
  Server server(server_config());
  server.start();
  auto stream = connect_to(server);
  net::write_message(stream, encode_hello({"h", 1e6}, 1));
  decode_hello_ack(net::read_message(stream));

  ResultUnit bogus;
  bogus.problem_id = 12345;
  bogus.unit_id = 1;
  bogus.epoch = server.epoch();
  net::write_message(stream, encode_submit_result(bogus, 2));
  auto reply = decode_result_ack(net::read_message(stream));
  EXPECT_FALSE(reply.accepted);
  server.stop();
}

}  // namespace
}  // namespace hdcs::dist
