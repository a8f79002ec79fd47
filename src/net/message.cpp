#include "net/message.hpp"

#include <algorithm>
#include <cstdio>

#include "net/bulk.hpp"
#include "net/frame_reader.hpp"
#include "obs/metrics.hpp"

namespace hdcs::net {

namespace {
// Process-wide wire counters. Looked up once (registry references are
// stable for its lifetime); updates are single relaxed atomics.
struct WireMetrics {
  obs::Counter& frames_sent = obs::Registry::global().counter("net.frames_sent");
  obs::Counter& frames_received =
      obs::Registry::global().counter("net.frames_received");
  obs::Counter& bytes_sent = obs::Registry::global().counter("net.bytes_sent");
  obs::Counter& bytes_received =
      obs::Registry::global().counter("net.bytes_received");
};
WireMetrics& wire_metrics() {
  static WireMetrics m;
  return m;
}
}  // namespace

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "Hello";
    case MessageType::kRequestWork: return "RequestWork";
    case MessageType::kSubmitResult: return "SubmitResult";
    case MessageType::kHeartbeat: return "Heartbeat";
    case MessageType::kGoodbye: return "Goodbye";
    case MessageType::kFetchStats: return "FetchStats";
    case MessageType::kFetchBlobs: return "FetchBlobs";
    case MessageType::kReplicaHello: return "ReplicaHello";
    case MessageType::kHelloAck: return "HelloAck";
    case MessageType::kWorkAssignment: return "WorkAssignment";
    case MessageType::kNoWorkAvailable: return "NoWorkAvailable";
    case MessageType::kResultAck: return "ResultAck";
    case MessageType::kShutdown: return "Shutdown";
    case MessageType::kStatsSnapshot: return "StatsSnapshot";
    case MessageType::kBlobData: return "BlobData";
    case MessageType::kReplicaSnapshot: return "ReplicaSnapshot";
    case MessageType::kWalAppend: return "WalAppend";
    case MessageType::kRetryLater: return "RetryLater";
    case MessageType::kError: return "Error";
  }
  return "Unknown";
}

namespace {
void put_header(ByteWriter& out, const Message& msg) {
  out.u32(kMagic);
  out.u16(kProtocolVersion);
  out.u16(static_cast<std::uint16_t>(msg.type));
  out.u64(msg.correlation);
  out.u32(static_cast<std::uint32_t>(msg.payload.size()));
  out.u32(crc32(msg.payload));
}

struct FrameHeader {
  MessageType type = MessageType::kError;
  std::uint64_t correlation = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// The one place a frame header is validated (magic, version, length),
/// shared by the blocking and the incremental reader.
FrameHeader parse_header(std::span<const std::byte> bytes) {
  ByteReader header(bytes);
  std::uint32_t magic = header.u32();
  if (magic != kMagic) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", magic);
    throw ProtocolError(std::string("bad frame magic 0x") + hex);
  }
  std::uint16_t version = header.u16();
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " + std::to_string(version));
  }
  FrameHeader h;
  h.type = static_cast<MessageType>(header.u16());
  h.correlation = header.u64();
  h.payload_len = header.u32();
  if (h.payload_len > kMaxPayload) {
    throw ProtocolError("frame payload too large: " +
                        std::to_string(h.payload_len));
  }
  h.payload_crc = header.u32();
  return h;
}

/// Check a fully read payload against its header CRC and count the frame.
void accept_payload(const Message& msg, std::uint32_t expected_crc) {
  if (crc32(msg.payload) != expected_crc) {
    throw ProtocolError("frame payload CRC mismatch (" +
                        std::string(to_string(msg.type)) + " frame)");
  }
  wire_metrics().frames_received.inc();
  wire_metrics().bytes_received.inc(kFrameHeaderBytes + msg.payload.size());
}
}  // namespace

void write_message(TcpStream& stream, const Message& msg) {
  ByteWriter header(kFrameHeaderBytes);
  put_header(header, msg);
  stream.send_all(header.data());
  if (!msg.payload.empty()) stream.send_all(msg.payload);
  wire_metrics().frames_sent.inc();
  wire_metrics().bytes_sent.inc(header.size() + msg.payload.size());
}

Message read_message(TcpStream& stream) {
  std::byte header_buf[kFrameHeaderBytes];
  stream.recv_all(header_buf);
  FrameHeader header = parse_header(header_buf);
  Message msg;
  msg.type = header.type;
  msg.correlation = header.correlation;
  // The header announced payload_len bytes that are already in flight; a
  // bounded stall wait means a corrupted payload_len (recv-side fault
  // injection flips bytes the frame CRC can only check after a full read)
  // cannot wedge the reader forever against a peer that sent fewer bytes.
  msg.payload.resize(header.payload_len);
  if (!msg.payload.empty()) stream.recv_all(msg.payload, kMidStreamStallMs);
  accept_payload(msg, header.payload_crc);
  return msg;
}

std::vector<std::byte> encode_frame(const Message& msg) {
  ByteWriter out(kFrameHeaderBytes + msg.payload.size());
  put_header(out, msg);
  out.raw(msg.payload);
  wire_metrics().frames_sent.inc();
  wire_metrics().bytes_sent.inc(out.size());
  return out.take();
}

// FrameReader lives here (not frame_reader.cpp) so the incremental path
// shares parse_header, accept_payload and wire_metrics() with read_message.
void FrameReader::feed(std::span<const std::byte> data,
                       std::vector<Message>& out) {
  for (;;) {
    if (!in_payload_) {
      std::size_t take = std::min(data.size(), kFrameHeaderBytes - have_);
      std::copy_n(data.data(), take, header_.data() + have_);
      have_ += take;
      data = data.subspan(take);
      if (have_ < kFrameHeaderBytes) return;
      FrameHeader header = parse_header(header_);
      msg_ = Message{};
      msg_.type = header.type;
      msg_.correlation = header.correlation;
      msg_.payload.resize(header.payload_len);
      expected_crc_ = header.payload_crc;
      payload_have_ = 0;
      have_ = 0;
      in_payload_ = true;
    }
    std::size_t take = std::min(data.size(), msg_.payload.size() - payload_have_);
    std::copy_n(data.data(), take, msg_.payload.data() + payload_have_);
    payload_have_ += take;
    data = data.subspan(take);
    if (payload_have_ < msg_.payload.size()) return;
    accept_payload(msg_, expected_crc_);
    in_payload_ = false;
    out.push_back(std::move(msg_));
    msg_ = Message{};
    if (data.empty()) return;
  }
}

Message make_error(std::uint64_t correlation, const std::string& text) {
  Message msg;
  msg.type = MessageType::kError;
  msg.correlation = correlation;
  ByteWriter w;
  w.str(text);
  msg.payload = w.take();
  return msg;
}

}  // namespace hdcs::net
