#pragma once
// Wire encodings of the dist-layer message payloads.
//
// Kept separate from SchedulerCore so the scheduler stays transport-free.
// Every encode has a matching decode; round-trip tests pin the format.

#include <cstdint>
#include <string>

#include "dist/work.hpp"
#include "net/message.hpp"

namespace hdcs::dist {

/// A connection's one registration: every later RequestWork, SubmitResult
/// and Goodbye on it speaks for the client this Hello registered, so none
/// of them names a client id.
struct HelloPayload {
  std::string client_name;
  double benchmark_ops_per_sec = 0;
};

struct HelloAckPayload {
  ClientId client_id = 0;
  /// Keepalive cadence: a donor whose work connection has been silent
  /// this long writes an empty Heartbeat frame on it. 0 = the server
  /// expires no silent connection, so send none.
  double heartbeat_interval_s = 0;
};

/// A leased unit and the problem it belongs to, named by content: the
/// Algorithm to run it with and the problem data's blob reference. A
/// problem id is unique only within one server's lifetime, so a donor keys
/// what it builds from the data by (algorithm_name, problem_data.digest),
/// and resolves the data like any other blob.
struct WorkAssignmentPayload {
  WorkUnit unit;
  std::string algorithm_name;
  WorkBlob problem_data;  // {digest, size}; no bytes on the wire
};

/// Sent when work can exist (see the long-poll note in dist/server.hpp),
/// so the donor asks again at once.
struct NoWorkPayload {
  bool all_problems_complete = false;
};

/// Retryable NACK: the server is shedding load (max_clients, blob
/// budget) or running with degraded durability — the request was NOT
/// applied; back off retry_after_s and retry it verbatim.
struct RetryLaterPayload {
  double retry_after_s = 1.0;
  std::string reason;  // "max_clients" | "blob_budget" | "degraded" | ...
};

/// NEED list: the digests a donor wants after checking its cache.
struct FetchBlobsPayload {
  std::vector<std::uint64_t> digests;
};

/// FetchBlobs reply header. For every requested digest, whether the server
/// still holds it (a blob can vanish when its last referencing unit
/// completes while the request was in flight — the donor then just drops
/// the unit).
/// Present blobs follow on the bulk channel, in order, in the compressed
/// blob format (net::encode_blob_v4).
struct BlobDataPayload {
  struct Entry {
    std::uint64_t digest = 0;
    bool present = false;
  };
  std::vector<Entry> blobs;
};

struct ResultAckPayload {
  bool accepted = false;
};

/// MSG_STATS request: any monitoring client (hdcs_top, a dashboard) may
/// send this on a plain connection without saying Hello first.
struct FetchStatsPayload {
  /// Include the per-client table (one entry per donor ever seen). Off for
  /// high-frequency pollers that only want the aggregate counters.
  bool include_clients = true;
};

/// MSG_STATS reply: one JSON document (schema documented in
/// docs/OBSERVABILITY.md) carrying scheduler stats, per-client stats and
/// the process metrics registry snapshot.
struct StatsSnapshotPayload {
  std::string json;
};

/// Replication handshake: a hot standby introduces itself to the
/// primary and asks for the sync stream (snapshot + live WAL records).
struct ReplicaHelloPayload {
  std::string standby_name;
};

/// Sync header: the primary's current term and the lsn at which the
/// live record stream will resume. The exact-snapshot bytes
/// (SchedulerCore::snapshot_exact) follow on the bulk channel
/// (net::send_blob_v4), like problem data.
struct ReplicaSnapshotPayload {
  std::uint64_t epoch = 0;
  std::uint64_t start_lsn = 1;
  std::uint64_t snapshot_bytes = 0;
};

/// Live stream: a batch of WAL record payloads (encode_wal_record
/// bytes, lsn-contiguous). Sent primary -> standby; the standby acks with
/// a ResultAck so the primary notices a dead or wedged standby.
struct WalAppendPayload {
  std::vector<std::vector<std::byte>> records;
};

net::Message encode_hello(const HelloPayload& p, std::uint64_t correlation);
HelloPayload decode_hello(const net::Message& m);

net::Message encode_hello_ack(const HelloAckPayload& p, std::uint64_t correlation);
HelloAckPayload decode_hello_ack(const net::Message& m);

/// Empty payload: the connection names the client.
net::Message encode_request_work(std::uint64_t correlation);
void decode_request_work(const net::Message& m);

/// The unit's fields and its blob reference list {digest, size} (no blob
/// bytes), then the algorithm name, the problem data reference and the
/// issuing epoch.
net::Message encode_work_assignment(const WorkAssignmentPayload& p,
                                    std::uint64_t correlation);
WorkAssignmentPayload decode_work_assignment(const net::Message& m);

net::Message encode_no_work(const NoWorkPayload& p, std::uint64_t correlation);
NoWorkPayload decode_no_work(const net::Message& m);

net::Message encode_retry_later(const RetryLaterPayload& p,
                                std::uint64_t correlation);
RetryLaterPayload decode_retry_later(const net::Message& m);

/// payload_crc is followed by the optional span-profile trailer (presence
/// flag + phase durations) and the echoed epoch.
net::Message encode_submit_result(const ResultUnit& result,
                                  std::uint64_t correlation);
ResultUnit decode_submit_result(const net::Message& m);

net::Message encode_result_ack(const ResultAckPayload& p, std::uint64_t correlation);
ResultAckPayload decode_result_ack(const net::Message& m);

net::Message encode_fetch_blobs(const FetchBlobsPayload& p,
                                std::uint64_t correlation);
FetchBlobsPayload decode_fetch_blobs(const net::Message& m);

net::Message encode_blob_data(const BlobDataPayload& p,
                              std::uint64_t correlation);
BlobDataPayload decode_blob_data(const net::Message& m);

/// Empty payload: the connection names the client.
net::Message encode_goodbye(std::uint64_t correlation);
void decode_goodbye(const net::Message& m);

net::Message encode_fetch_stats(const FetchStatsPayload& p,
                                std::uint64_t correlation);
FetchStatsPayload decode_fetch_stats(const net::Message& m);

net::Message encode_stats_snapshot(const StatsSnapshotPayload& p,
                                   std::uint64_t correlation);
StatsSnapshotPayload decode_stats_snapshot(const net::Message& m);

net::Message encode_replica_hello(const ReplicaHelloPayload& p,
                                  std::uint64_t correlation);
ReplicaHelloPayload decode_replica_hello(const net::Message& m);

net::Message encode_replica_snapshot(const ReplicaSnapshotPayload& p,
                                     std::uint64_t correlation);
ReplicaSnapshotPayload decode_replica_snapshot(const net::Message& m);

net::Message encode_wal_append(const WalAppendPayload& p,
                               std::uint64_t correlation);
WalAppendPayload decode_wal_append(const net::Message& m);

}  // namespace hdcs::dist
