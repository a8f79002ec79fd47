#pragma once
// Framed control-plane messages — the C++ stand-in for the paper's Java RMI.
//
// Wire frame:   magic(u32) version(u16) type(u16) correlation(u64)
//               payload_len(u32) payload_crc(u32) payload[payload_len]
//
// payload_crc is CRC-32 of the payload bytes (version 2): a corrupted
// frame surfaces as ProtocolError and tears the connection down instead of
// feeding garbage to the dist layer; the peer reconnects and retransmits.
//
// RMI gives the Java system typed request/response calls between the client,
// server and remote interface. We reproduce the same semantics with a typed
// message enum and a correlation id the requester chooses and the responder
// echoes. Payloads are ByteWriter-encoded by the dist layer.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "util/byte_buffer.hpp"

namespace hdcs::net {

inline constexpr std::uint32_t kMagic = 0x48444353;  // "HDCS"
// The one wire dialect. Every frame carries it in its header; a frame
// stamped with any other version is refused (ProtocolError) and the
// connection drops. History: v2 added the frame payload_crc, v3 the
// SubmitResult digest, v4 the content-addressed bulk-data plane, v5 the
// span-profile trailer, v6 the server epoch and the hot-standby stream,
// v7 the retryable RetryLater NACK, v8 the one-way Heartbeat keepalive on
// the work connection (HeartbeatAck retired), v9 the connection as the
// session (no client id in RequestWork, SubmitResult, Goodbye or
// FetchBlobs; Hello's cores and NoWork's retry_after_s retired), v10 the
// problem named by content (WorkAssignment carries the algorithm name and
// the problem data's blob reference; FetchProblemData and ProblemData
// retired). A format change bumps this constant for both sides at once.
inline constexpr std::uint16_t kProtocolVersion = 10;
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Upper bound on a single frame; bulk data uses the chunked bulk channel.
inline constexpr std::uint32_t kMaxPayload = 64u * 1024 * 1024;

enum class MessageType : std::uint16_t {
  // Client -> server
  kHello = 1,          // client registers: name, benchmark score (once)
  kRequestWork = 2,    // idle worker asks for a unit
  kSubmitResult = 3,   // finished unit's result payload
  kHeartbeat = 4,      // one-way keepalive on the work connection
  kGoodbye = 6,        // orderly departure (donor machine reclaimed)
  kFetchStats = 7,     // MSG_STATS: ask for a live metrics snapshot
  kFetchBlobs = 8,     // NEED list — digests missing from donor cache
  kReplicaHello = 9,   // a hot standby asks to tail this primary's WAL

  // Server -> client
  kHelloAck = 32,      // assigned client id
  kWorkAssignment = 33,  // a WorkUnit, its algorithm and problem data ref
  kNoWorkAvailable = 34,  // nothing to do right now; ask again
  kResultAck = 36,
  kShutdown = 38,      // server is stopping; client should exit
  kStatsSnapshot = 39, // MSG_STATS reply: JSON metrics snapshot
  kBlobData = 40,      // per-digest present flags; bodies follow on bulk
  kReplicaSnapshot = 41,  // exact-snapshot header; bytes follow on bulk
  kWalAppend = 42,     // a batch of live WAL records for the standby
  kRetryLater = 43,    // retryable NACK — back off retry_after_s, retry

  // Either direction
  kError = 64,
};

const char* to_string(MessageType type);

struct Message {
  MessageType type = MessageType::kError;
  std::uint64_t correlation = 0;
  std::vector<std::byte> payload;

  [[nodiscard]] ByteReader reader() const { return ByteReader(payload); }
};

/// Write one frame. Throws IoError on transport failure.
void write_message(TcpStream& stream, const Message& msg);

/// Read one frame. Throws ProtocolError on bad magic, a version other than
/// kProtocolVersion, an oversize length or a payload CRC mismatch;
/// ConnectionClosed on clean EOF at a frame boundary.
Message read_message(TcpStream& stream);

/// Serialize one frame (header + payload) to bytes without touching a
/// socket — the event-loop server encodes onto per-connection write queues.
/// Bumps the same net.frames_sent / net.bytes_sent counters write_message
/// does, at encode time (the queue owns delivery from here).
std::vector<std::byte> encode_frame(const Message& msg);

/// Convenience: build a message whose payload is a single string (errors).
Message make_error(std::uint64_t correlation, const std::string& text);

}  // namespace hdcs::net
