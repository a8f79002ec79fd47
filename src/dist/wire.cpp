#include "dist/wire.hpp"

#include "util/error.hpp"

namespace hdcs::dist {

namespace {
void check_type(const net::Message& m, net::MessageType expected) {
  if (m.type != expected) {
    throw ProtocolError(std::string("expected ") + net::to_string(expected) +
                        " frame, got " + net::to_string(m.type));
  }
}

net::Message make(net::MessageType type, std::uint64_t correlation, ByteWriter w) {
  net::Message m;
  m.type = type;
  m.correlation = correlation;
  m.payload = w.take();
  return m;
}
}  // namespace

net::Message encode_hello(const HelloPayload& p, std::uint64_t correlation) {
  ByteWriter w;
  w.str(p.client_name);
  w.f64(p.benchmark_ops_per_sec);
  return make(net::MessageType::kHello, correlation, std::move(w));
}

HelloPayload decode_hello(const net::Message& m) {
  check_type(m, net::MessageType::kHello);
  auto r = m.reader();
  HelloPayload p;
  p.client_name = r.str();
  p.benchmark_ops_per_sec = r.f64();
  r.expect_end();
  return p;
}

net::Message encode_hello_ack(const HelloAckPayload& p, std::uint64_t correlation) {
  ByteWriter w;
  w.u64(p.client_id);
  w.f64(p.heartbeat_interval_s);
  return make(net::MessageType::kHelloAck, correlation, std::move(w));
}

HelloAckPayload decode_hello_ack(const net::Message& m) {
  check_type(m, net::MessageType::kHelloAck);
  auto r = m.reader();
  HelloAckPayload p;
  p.client_id = r.u64();
  p.heartbeat_interval_s = r.f64();
  r.expect_end();
  return p;
}

net::Message encode_request_work(std::uint64_t correlation) {
  return make(net::MessageType::kRequestWork, correlation, ByteWriter{});
}

void decode_request_work(const net::Message& m) {
  check_type(m, net::MessageType::kRequestWork);
  m.reader().expect_end();
}

namespace {
void write_unit_fields(ByteWriter& w, ProblemId pid, UnitId uid, std::uint32_t stage) {
  w.u64(pid);
  w.u64(uid);
  w.u32(stage);
}

// A blob reference: {digest, size}, never the bytes.
void write_blob_ref(ByteWriter& w, const WorkBlob& blob) {
  w.u64(blob.digest);
  w.u64(blob.size);
}

WorkBlob read_blob_ref(ByteReader& r) {
  WorkBlob blob;
  blob.digest = r.u64();
  blob.size = r.u64();
  return blob;
}
}  // namespace

net::Message encode_work_assignment(const WorkAssignmentPayload& p,
                                    std::uint64_t correlation) {
  const WorkUnit& unit = p.unit;
  ByteWriter w;
  write_unit_fields(w, unit.problem_id, unit.unit_id, unit.stage);
  w.f64(unit.cost_ops);
  w.bytes(unit.payload);
  w.u32(static_cast<std::uint32_t>(unit.blobs.size()));
  for (const WorkBlob& blob : unit.blobs) write_blob_ref(w, blob);
  w.str(p.algorithm_name);
  write_blob_ref(w, p.problem_data);
  w.u64(unit.epoch);
  return make(net::MessageType::kWorkAssignment, correlation, std::move(w));
}

WorkAssignmentPayload decode_work_assignment(const net::Message& m) {
  check_type(m, net::MessageType::kWorkAssignment);
  auto r = m.reader();
  WorkAssignmentPayload p;
  WorkUnit& unit = p.unit;
  unit.problem_id = r.u64();
  unit.unit_id = r.u64();
  unit.stage = r.u32();
  unit.cost_ops = r.f64();
  unit.payload = r.bytes();
  std::uint32_t count = r.u32();
  unit.blobs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) unit.blobs.push_back(read_blob_ref(r));
  p.algorithm_name = r.str();
  p.problem_data = read_blob_ref(r);
  unit.epoch = r.u64();
  r.expect_end();
  return p;
}

net::Message encode_no_work(const NoWorkPayload& p, std::uint64_t correlation) {
  ByteWriter w;
  w.boolean(p.all_problems_complete);
  return make(net::MessageType::kNoWorkAvailable, correlation, std::move(w));
}

NoWorkPayload decode_no_work(const net::Message& m) {
  check_type(m, net::MessageType::kNoWorkAvailable);
  auto r = m.reader();
  NoWorkPayload p;
  p.all_problems_complete = r.boolean();
  r.expect_end();
  return p;
}

net::Message encode_retry_later(const RetryLaterPayload& p,
                                std::uint64_t correlation) {
  ByteWriter w;
  w.f64(p.retry_after_s);
  w.str(p.reason);
  return make(net::MessageType::kRetryLater, correlation, std::move(w));
}

RetryLaterPayload decode_retry_later(const net::Message& m) {
  check_type(m, net::MessageType::kRetryLater);
  auto r = m.reader();
  RetryLaterPayload p;
  p.retry_after_s = r.f64();
  p.reason = r.str();
  r.expect_end();
  return p;
}

net::Message encode_submit_result(const ResultUnit& result,
                                  std::uint64_t correlation) {
  ByteWriter w;
  write_unit_fields(w, result.problem_id, result.unit_id, result.stage);
  w.bytes(result.payload);
  w.u32(result.payload_crc);
  w.boolean(result.profile.has_value());
  if (result.profile) {
    const obs::UnitProfile& p = *result.profile;
    w.f64(p.queue_wait_s);
    w.f64(p.blob_fetch_s);
    w.f64(p.decompress_s);
    w.f64(p.compute_s);
    w.f64(p.encode_s);
    w.u32(p.threads);
    w.u64(p.saturations);
  }
  w.u64(result.epoch);
  return make(net::MessageType::kSubmitResult, correlation, std::move(w));
}

ResultUnit decode_submit_result(const net::Message& m) {
  check_type(m, net::MessageType::kSubmitResult);
  auto r = m.reader();
  ResultUnit result;
  result.problem_id = r.u64();
  result.unit_id = r.u64();
  result.stage = r.u32();
  result.payload = r.bytes();
  result.payload_crc = r.u32();
  if (r.boolean()) {
    obs::UnitProfile p;
    p.queue_wait_s = r.f64();
    p.blob_fetch_s = r.f64();
    p.decompress_s = r.f64();
    p.compute_s = r.f64();
    p.encode_s = r.f64();
    p.threads = r.u32();
    p.saturations = r.u64();
    result.profile = p;
  }
  result.epoch = r.u64();
  r.expect_end();
  return result;
}

net::Message encode_result_ack(const ResultAckPayload& p, std::uint64_t correlation) {
  ByteWriter w;
  w.boolean(p.accepted);
  return make(net::MessageType::kResultAck, correlation, std::move(w));
}

ResultAckPayload decode_result_ack(const net::Message& m) {
  check_type(m, net::MessageType::kResultAck);
  auto r = m.reader();
  ResultAckPayload p;
  p.accepted = r.boolean();
  r.expect_end();
  return p;
}

net::Message encode_fetch_blobs(const FetchBlobsPayload& p,
                                std::uint64_t correlation) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(p.digests.size()));
  for (std::uint64_t digest : p.digests) w.u64(digest);
  return make(net::MessageType::kFetchBlobs, correlation, std::move(w));
}

FetchBlobsPayload decode_fetch_blobs(const net::Message& m) {
  check_type(m, net::MessageType::kFetchBlobs);
  auto r = m.reader();
  FetchBlobsPayload p;
  std::uint32_t count = r.u32();
  p.digests.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) p.digests.push_back(r.u64());
  r.expect_end();
  return p;
}

net::Message encode_blob_data(const BlobDataPayload& p,
                              std::uint64_t correlation) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(p.blobs.size()));
  for (const auto& entry : p.blobs) {
    w.u64(entry.digest);
    w.boolean(entry.present);
  }
  return make(net::MessageType::kBlobData, correlation, std::move(w));
}

BlobDataPayload decode_blob_data(const net::Message& m) {
  check_type(m, net::MessageType::kBlobData);
  auto r = m.reader();
  BlobDataPayload p;
  std::uint32_t count = r.u32();
  p.blobs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BlobDataPayload::Entry entry;
    entry.digest = r.u64();
    entry.present = r.boolean();
    p.blobs.push_back(entry);
  }
  r.expect_end();
  return p;
}

net::Message encode_goodbye(std::uint64_t correlation) {
  return make(net::MessageType::kGoodbye, correlation, ByteWriter{});
}

void decode_goodbye(const net::Message& m) {
  check_type(m, net::MessageType::kGoodbye);
  m.reader().expect_end();
}

net::Message encode_fetch_stats(const FetchStatsPayload& p,
                                std::uint64_t correlation) {
  ByteWriter w;
  w.boolean(p.include_clients);
  return make(net::MessageType::kFetchStats, correlation, std::move(w));
}

FetchStatsPayload decode_fetch_stats(const net::Message& m) {
  check_type(m, net::MessageType::kFetchStats);
  auto r = m.reader();
  FetchStatsPayload p;
  p.include_clients = r.boolean();
  r.expect_end();
  return p;
}

net::Message encode_stats_snapshot(const StatsSnapshotPayload& p,
                                   std::uint64_t correlation) {
  ByteWriter w;
  w.str(p.json);
  return make(net::MessageType::kStatsSnapshot, correlation, std::move(w));
}

StatsSnapshotPayload decode_stats_snapshot(const net::Message& m) {
  check_type(m, net::MessageType::kStatsSnapshot);
  auto r = m.reader();
  StatsSnapshotPayload p;
  p.json = r.str();
  r.expect_end();
  return p;
}

net::Message encode_replica_hello(const ReplicaHelloPayload& p,
                                  std::uint64_t correlation) {
  ByteWriter w;
  w.str(p.standby_name);
  return make(net::MessageType::kReplicaHello, correlation, std::move(w));
}

ReplicaHelloPayload decode_replica_hello(const net::Message& m) {
  check_type(m, net::MessageType::kReplicaHello);
  auto r = m.reader();
  ReplicaHelloPayload p;
  p.standby_name = r.str();
  r.expect_end();
  return p;
}

net::Message encode_replica_snapshot(const ReplicaSnapshotPayload& p,
                                     std::uint64_t correlation) {
  ByteWriter w;
  w.u64(p.epoch);
  w.u64(p.start_lsn);
  w.u64(p.snapshot_bytes);
  return make(net::MessageType::kReplicaSnapshot, correlation, std::move(w));
}

ReplicaSnapshotPayload decode_replica_snapshot(const net::Message& m) {
  check_type(m, net::MessageType::kReplicaSnapshot);
  auto r = m.reader();
  ReplicaSnapshotPayload p;
  p.epoch = r.u64();
  p.start_lsn = r.u64();
  p.snapshot_bytes = r.u64();
  r.expect_end();
  return p;
}

net::Message encode_wal_append(const WalAppendPayload& p,
                               std::uint64_t correlation) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(p.records.size()));
  for (const auto& rec : p.records) w.bytes(rec);
  return make(net::MessageType::kWalAppend, correlation, std::move(w));
}

WalAppendPayload decode_wal_append(const net::Message& m) {
  check_type(m, net::MessageType::kWalAppend);
  auto r = m.reader();
  WalAppendPayload p;
  std::uint32_t count = r.u32();
  p.records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) p.records.push_back(r.bytes());
  r.expect_end();
  return p;
}

}  // namespace hdcs::dist
