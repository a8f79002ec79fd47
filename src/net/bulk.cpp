#include "net/bulk.hpp"

#include <array>

#include "net/compress.hpp"
#include "obs/metrics.hpp"
#include "util/byte_buffer.hpp"
#include "util/stopwatch.hpp"

namespace hdcs::net {

namespace {
struct BulkMetrics {
  obs::Counter& blobs_sent = obs::Registry::global().counter("net.blobs_sent");
  obs::Counter& blobs_received =
      obs::Registry::global().counter("net.blobs_received");
  obs::Counter& bulk_bytes_sent =
      obs::Registry::global().counter("net.bulk_bytes_sent");
  obs::Counter& bulk_bytes_received =
      obs::Registry::global().counter("net.bulk_bytes_received");
};
BulkMetrics& bulk_metrics() {
  static BulkMetrics m;
  return m;
}
}  // namespace

BulkPlaneMetrics& bulk_plane_metrics() {
  auto& reg = obs::Registry::global();
  static BulkPlaneMetrics m{
      reg.counter("bulk.blobs_sent"), reg.counter("bulk.blobs_cache_hit"),
      reg.counter("bulk.bytes_raw"), reg.counter("bulk.bytes_wire")};
  return m;
}

namespace {
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  static const auto table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (std::byte b : data) {
    c = table[(c ^ static_cast<std::uint8_t>(b)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

namespace {
// raw_size | crc32(raw) | flags | wire_size | crc32(header). The trailing
// header CRC lets the receiver reject a corrupted length field *before*
// trusting it — without it, a flipped wire_size byte makes the receiver
// wait for bytes the sender never sent, and the body CRC (checked only
// after a full read) can never run.
constexpr std::size_t kBlobV4LengthsBytes = 8 + 4 + 1 + 8;
constexpr std::size_t kBlobV4HeaderBytes = kBlobV4LengthsBytes + 4;
constexpr std::uint8_t kBlobFlagCompressed = 1;
}  // namespace

EncodedBlobV4 encode_blob_v4(std::span<const std::byte> data) {
  auto compressed = lz_compress(data);
  std::span<const std::byte> body =
      compressed ? std::span<const std::byte>(*compressed) : data;
  ByteWriter out(kBlobV4HeaderBytes + body.size());
  out.u64(data.size());
  out.u32(crc32(data));
  out.u8(compressed ? kBlobFlagCompressed : 0);
  out.u64(body.size());
  out.u32(crc32(out.data()));
  out.raw(body);
  bulk_metrics().blobs_sent.inc();
  bulk_metrics().bulk_bytes_sent.inc(out.size());
  BlobWireInfo info{data.size(), kBlobV4HeaderBytes + body.size(),
                    compressed.has_value()};
  return EncodedBlobV4{out.take(), info};
}

BlobWireInfo send_blob_v4(TcpStream& stream, std::span<const std::byte> data) {
  auto enc = encode_blob_v4(data);
  stream.send_all(enc.bytes);
  return enc.info;
}

std::vector<std::byte> recv_blob_v4(TcpStream& stream, std::size_t max_bytes,
                                    double* decompress_s) {
  std::byte header_buf[kBlobV4HeaderBytes];
  stream.recv_all(header_buf, kMidStreamStallMs);
  ByteReader header(header_buf);
  std::uint64_t raw_size = header.u64();
  std::uint32_t expected_crc = header.u32();
  std::uint8_t flags = header.u8();
  std::uint64_t wire_size = header.u64();
  std::uint32_t header_crc = header.u32();
  if (crc32(std::span(header_buf).first(kBlobV4LengthsBytes)) != header_crc) {
    throw ProtocolError("bulk blob header CRC mismatch");
  }
  if (raw_size > max_bytes || wire_size > max_bytes) {
    throw IoError("bulk blob too large: raw " + std::to_string(raw_size) +
                  " / wire " + std::to_string(wire_size) + " bytes");
  }
  if (flags & ~kBlobFlagCompressed) {
    throw ProtocolError("bulk blob: unknown flags");
  }
  bool is_compressed = flags & kBlobFlagCompressed;
  if (!is_compressed && wire_size != raw_size) {
    throw ProtocolError("bulk blob: stored size mismatch");
  }
  std::vector<std::byte> body(wire_size);
  std::size_t off = 0;
  while (off < body.size()) {
    std::size_t n = std::min(kBulkChunk, body.size() - off);
    stream.recv_all(std::span(body).subspan(off, n), kMidStreamStallMs);
    off += n;
  }
  std::vector<std::byte> data;
  if (is_compressed) {
    Stopwatch inflate;
    data = lz_decompress(body, raw_size);
    if (decompress_s) *decompress_s += inflate.seconds();
  } else {
    data = std::move(body);
  }
  if (crc32(data) != expected_crc) {
    throw ProtocolError("bulk blob CRC mismatch");
  }
  bulk_metrics().blobs_received.inc();
  bulk_metrics().bulk_bytes_received.inc(sizeof(header_buf) + wire_size);
  return data;
}

}  // namespace hdcs::net
