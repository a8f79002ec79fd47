#pragma once
// Incremental (non-blocking) frame parser.
//
// read_message() owns the blocking path: it can sit in recv until a whole
// frame arrives. An event-loop server instead gets bytes in arbitrary
// slices — half a header, three frames and a tail, one byte at a time —
// and FrameReader turns any such slicing into the same Message stream,
// byte-identical to read_message: both run the same header validation
// (magic, version, length), payload-CRC check and wire counters. A fuzz
// test (tests/test_net.cpp) feeds every message type through both paths at
// every split point and asserts identical decodes.
//
// Usage: feed() every received slice; completed messages append to `out`.
// ProtocolError means the stream is poisoned — tear the connection down
// exactly as the blocking path would.

#include <array>
#include <span>
#include <vector>

#include "net/message.hpp"

namespace hdcs::net {

class FrameReader {
 public:
  /// Consume `data`, appending every completed message to `out`.
  /// Throws ProtocolError on bad magic/version/length or payload CRC
  /// mismatch (same conditions and messages as read_message).
  void feed(std::span<const std::byte> data, std::vector<Message>& out);

  /// True while a frame is partially read (a header or payload has begun
  /// but not finished) — the state in which peer silence is a mid-structure
  /// stall rather than an idle connection.
  [[nodiscard]] bool mid_frame() const { return have_ > 0 || in_payload_; }

  /// Bytes buffered toward the incomplete frame (tests / introspection).
  [[nodiscard]] std::size_t pending_bytes() const {
    return in_payload_ ? kFrameHeaderBytes + payload_have_ : have_;
  }

 private:
  std::array<std::byte, kFrameHeaderBytes> header_{};
  std::size_t have_ = 0;  // header bytes collected so far
  bool in_payload_ = false;
  Message msg_;  // under construction once the header validated
  std::uint32_t expected_crc_ = 0;
  std::size_t payload_have_ = 0;
};

}  // namespace hdcs::net
