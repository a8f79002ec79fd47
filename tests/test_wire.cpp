#include "dist/wire.hpp"

#include <gtest/gtest.h>

#include "net/frame_reader.hpp"
#include "util/error.hpp"

namespace hdcs::dist {
namespace {

TEST(Wire, HelloRoundTrip) {
  HelloPayload p;
  p.client_name = "lab-piii-7";
  p.benchmark_ops_per_sec = 5.25e7;
  auto msg = encode_hello(p, 42);
  EXPECT_EQ(msg.correlation, 42u);
  auto q = decode_hello(msg);
  EXPECT_EQ(q.client_name, p.client_name);
  EXPECT_DOUBLE_EQ(q.benchmark_ops_per_sec, p.benchmark_ops_per_sec);
}

TEST(Wire, HelloAckRoundTrip) {
  HelloAckPayload p;
  p.client_id = 17;
  p.heartbeat_interval_s = 12.5;
  auto q = decode_hello_ack(encode_hello_ack(p, 1));
  EXPECT_EQ(q.client_id, 17u);
  EXPECT_DOUBLE_EQ(q.heartbeat_interval_s, 12.5);
}

TEST(Wire, WorkAssignmentRoundTrip) {
  WorkAssignmentPayload p;
  p.unit.problem_id = 3;
  p.unit.unit_id = 99;
  p.unit.stage = 7;
  p.unit.cost_ops = 1.5e6;
  ByteWriter w;
  w.str("chunk payload");
  p.unit.payload = w.take();
  // The problem, named by content: no problem-data bytes on the wire.
  p.algorithm_name = "dsearch";
  p.problem_data.digest = 0x0badc0ffee0ddf00ull;
  p.problem_data.size = 1234567;

  auto decoded = decode_work_assignment(encode_work_assignment(p, 5));
  EXPECT_EQ(decoded.unit.problem_id, 3u);
  EXPECT_EQ(decoded.unit.unit_id, 99u);
  EXPECT_EQ(decoded.unit.stage, 7u);
  EXPECT_DOUBLE_EQ(decoded.unit.cost_ops, 1.5e6);
  EXPECT_EQ(decoded.unit.payload, p.unit.payload);
  EXPECT_EQ(decoded.algorithm_name, "dsearch");
  EXPECT_EQ(decoded.problem_data.digest, 0x0badc0ffee0ddf00ull);
  EXPECT_EQ(decoded.problem_data.size, 1234567u);
  EXPECT_TRUE(decoded.problem_data.bytes.empty());
}

TEST(Wire, SubmitResultRoundTrip) {
  ResultUnit result;
  result.problem_id = 1;
  result.unit_id = 2;
  result.stage = 3;
  ByteWriter w;
  w.f64(-1234.5);
  result.payload = w.take();
  result.payload_crc = 0xdeadbeefu;  // the donor's digest over payload

  auto decoded = decode_submit_result(encode_submit_result(result, 6));
  EXPECT_EQ(decoded.unit_id, 2u);
  EXPECT_EQ(decoded.payload, result.payload);
  EXPECT_EQ(decoded.payload_crc, 0xdeadbeefu);
}

TEST(Wire, SubmitResultV5ProfileTrailerRoundTrip) {
  // The span-profile trailer (introduced in v5) after payload_crc.
  ResultUnit result;
  result.problem_id = 1;
  result.unit_id = 2;
  result.stage = 3;
  obs::UnitProfile prof;
  prof.queue_wait_s = 0.015;
  prof.blob_fetch_s = 0.25;
  prof.decompress_s = 0.004;
  prof.compute_s = 2.75;
  prof.encode_s = 0.001;
  prof.threads = 4;
  prof.saturations = 17;
  result.profile = prof;

  auto decoded = decode_submit_result(encode_submit_result(result, 6));
  ASSERT_TRUE(decoded.profile.has_value());
  EXPECT_DOUBLE_EQ(decoded.profile->queue_wait_s, 0.015);
  EXPECT_DOUBLE_EQ(decoded.profile->blob_fetch_s, 0.25);
  EXPECT_DOUBLE_EQ(decoded.profile->decompress_s, 0.004);
  EXPECT_DOUBLE_EQ(decoded.profile->compute_s, 2.75);
  EXPECT_DOUBLE_EQ(decoded.profile->encode_s, 0.001);
  EXPECT_EQ(decoded.profile->threads, 4u);
  EXPECT_EQ(decoded.profile->saturations, 17u);

  // A frame without a profile carries only the presence flag.
  result.profile.reset();
  EXPECT_FALSE(decode_submit_result(encode_submit_result(result, 7))
                   .profile.has_value());
}

TEST(Wire, V6EpochRoundTripsOnWorkAndResult) {
  // The fencing epoch (introduced in v6) rides on both the lease and the
  // echo.
  WorkAssignmentPayload assignment;
  assignment.unit.problem_id = 3;
  assignment.unit.unit_id = 99;
  assignment.unit.epoch = 7;
  EXPECT_EQ(
      decode_work_assignment(encode_work_assignment(assignment, 5)).unit.epoch,
      7u);

  ResultUnit result;
  result.problem_id = 3;
  result.unit_id = 99;
  result.epoch = 7;
  EXPECT_EQ(decode_submit_result(encode_submit_result(result, 5)).epoch, 7u);
}

std::string hex(const std::vector<std::byte>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : bytes) {
    auto v = static_cast<unsigned>(b);
    out += kDigits[v >> 4];
    out += kDigits[v & 15];
  }
  return out;
}

TEST(Wire, GoldenV10FramesAreByteStable) {
  // Whole frames (header + payload) as v10 peers exchange them. A donor or
  // server built against an older v10 tree must keep decoding these bytes,
  // so any difference here is a wire-format break. (v10 added the
  // algorithm name and the problem data's {digest, size} between the blob
  // references and the epoch of WorkAssignment; the SubmitResult payload
  // is the v9 bytes with 0a in the version field.)
  WorkAssignmentPayload assignment;
  WorkUnit& unit = assignment.unit;
  unit.problem_id = 3;
  unit.unit_id = 17;
  unit.stage = 2;
  unit.cost_ops = 1234.5;
  unit.payload = {std::byte{'h'}, std::byte{'d'}, std::byte{'r'}};
  unit.blobs.resize(2);
  unit.blobs[0].digest = 0x0123456789abcdefull;
  unit.blobs[0].size = 4096;
  unit.blobs[1].digest = 0xfedcba9876543210ull;
  unit.blobs[1].size = 77;
  unit.epoch = 5;
  assignment.algorithm_name = "dsearch";
  assignment.problem_data.digest = 0x0badc0ffee0ddf00ull;
  assignment.problem_data.size = 1234567;
  EXPECT_EQ(hex(net::encode_frame(encode_work_assignment(assignment, 9))),
            "534344480a00210009000000000000006a0000004992bc1603000000000000"
            "0011000000000000000200000000000000004a934003000000686472020000"
            "00efcdab896745230100100000000000001032547698badcfe4d0000000000"
            "0000070000006473656172636800df0deeffc0ad0b87d61200000000000500"
            "000000000000");

  ResultUnit result;
  result.problem_id = 3;
  result.unit_id = 17;
  result.stage = 2;
  result.payload = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
  result.payload_crc = 0xdeadbeefu;
  obs::UnitProfile prof;
  prof.queue_wait_s = 0.5;
  prof.blob_fetch_s = 0.25;
  prof.decompress_s = 0.125;
  prof.compute_s = 2.0;
  prof.encode_s = 0.0625;
  prof.threads = 4;
  prof.saturations = 17;
  result.profile = prof;
  result.epoch = 5;
  EXPECT_EQ(hex(net::encode_frame(encode_submit_result(result, 10))),
            "534344480a0003000a000000000000005d00000032d2600103000000000000"
            "001100000000000000020000000400000001020304efbeadde010000000000"
            "00e03f000000000000d03f000000000000c03f000000000000004000000000"
            "0000b03f0400000011000000000000000500000000000000");

  // The NEED list a donor sends for a new problem's first unit: the
  // unit's chunk and the problem data, in one request.
  FetchBlobsPayload need;
  need.digests = {0x0badc0ffee0ddf00ull, 0x0123456789abcdefull};
  EXPECT_EQ(hex(net::encode_frame(encode_fetch_blobs(need, 13))),
            "534344480a0008000d000000000000001400000030c652da0200000000df0d"
            "eeffc0ad0befcdab8967452301");

  // The same frame stamped v9 is refused whole: one dialect on the wire.
  auto v9 = net::encode_frame(encode_fetch_blobs(need, 13));
  v9[4] = std::byte{9};
  net::FrameReader reader;
  std::vector<net::Message> out;
  EXPECT_THROW(reader.feed(v9, out), ProtocolError);
  EXPECT_TRUE(out.empty());
}

TEST(Wire, ReplicationPayloadsRoundTrip) {
  ReplicaHelloPayload hello;
  hello.standby_name = "standby-2";
  auto h = decode_replica_hello(encode_replica_hello(hello, 11));
  EXPECT_EQ(h.standby_name, "standby-2");

  ReplicaSnapshotPayload snap;
  snap.epoch = 3;
  snap.start_lsn = 4242;
  snap.snapshot_bytes = 123456;
  auto s = decode_replica_snapshot(encode_replica_snapshot(snap, 12));
  EXPECT_EQ(s.epoch, 3u);
  EXPECT_EQ(s.start_lsn, 4242u);
  EXPECT_EQ(s.snapshot_bytes, 123456u);

  WalAppendPayload batch;
  ByteWriter a, b;
  a.str("record one");
  b.u64(77);
  batch.records.push_back(a.take());
  batch.records.push_back(b.take());
  auto w = decode_wal_append(encode_wal_append(batch, 13));
  ASSERT_EQ(w.records.size(), 2u);
  EXPECT_EQ(w.records[0], batch.records[0]);
  EXPECT_EQ(w.records[1], batch.records[1]);
}

TEST(Wire, NoWorkRoundTrip) {
  NoWorkPayload p;
  p.all_problems_complete = true;
  auto msg = encode_no_work(p, 0);
  EXPECT_EQ(msg.payload.size(), 1u);  // the completion flag alone
  EXPECT_TRUE(decode_no_work(msg).all_problems_complete);
  EXPECT_FALSE(decode_no_work(encode_no_work({}, 0)).all_problems_complete);
}

TEST(Wire, SmallIdMessagesRoundTrip) {
  // RequestWork and Goodbye name no client: the connection does.
  EXPECT_TRUE(encode_request_work(1).payload.empty());
  EXPECT_TRUE(encode_goodbye(3).payload.empty());
  EXPECT_NO_THROW(decode_request_work(encode_request_work(1)));
  EXPECT_NO_THROW(decode_goodbye(encode_goodbye(3)));
  EXPECT_TRUE(decode_result_ack(encode_result_ack({true}, 5)).accepted);
}

TEST(Wire, WrongTypeThrowsProtocolError) {
  auto msg = encode_request_work(1);
  EXPECT_THROW(decode_hello(msg), ProtocolError);
  EXPECT_THROW(decode_work_assignment(msg), ProtocolError);
}

TEST(Wire, TruncatedPayloadThrows) {
  auto msg = encode_hello({"name", 2.0}, 1);
  msg.payload.pop_back();
  EXPECT_THROW(decode_hello(msg), SerializationError);
}

TEST(Wire, TrailingGarbageDetected) {
  auto msg = encode_request_work(1);
  msg.payload.push_back(std::byte{0});
  EXPECT_THROW(decode_request_work(msg), SerializationError);
}

}  // namespace
}  // namespace hdcs::dist
