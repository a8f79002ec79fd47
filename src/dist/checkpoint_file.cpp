#include "dist/checkpoint_file.hpp"

#include "net/bulk.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x484b4350;  // "HKCP"
// Versions the envelope; the payload carries its own (the WAL base holds
// a versioned exact snapshot).
constexpr std::uint32_t kCheckpointFileVersion = 4;
}  // namespace

void write_checkpoint_file(const std::string& path,
                           std::span<const std::byte> payload) {
  ByteWriter w(payload.size() + 32);
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointFileVersion);
  w.u64(payload.size());
  w.raw(payload);
  w.u32(net::crc32(payload));

  // tmp + fsync + atomic rename through the vfs, so an injected ENOSPC /
  // EIO / torn rename exercises the same recovery the real faults would:
  // the old checkpoint (if any) stays valid on a clean failure, and a torn
  // rename is caught by the CRC envelope on the next read.
  std::string tmp = path + ".tmp";
  try {
    auto f = vfs::File::create(tmp);
    f.write_all(w.data());
    f.sync();
    f.close();
    vfs::rename_file(tmp, path);
  } catch (...) {
    vfs::remove_file(tmp);
    throw;
  }
  vfs::sync_parent_dir(path);
}

std::optional<std::vector<std::byte>> read_checkpoint_file(
    const std::string& path) {
  auto maybe_raw = vfs::read_file_if_exists(path);
  if (!maybe_raw) return std::nullopt;
  auto& raw = *maybe_raw;

  ByteReader r{std::span<const std::byte>(raw)};
  if (raw.size() < 20 || r.u32() != kCheckpointMagic) {
    throw ProtocolError("checkpoint file " + path + ": bad magic");
  }
  if (std::uint32_t v = r.u32(); v != kCheckpointFileVersion) {
    throw ProtocolError("checkpoint file " + path + ": unsupported version " +
                        std::to_string(v));
  }
  std::uint64_t len = r.u64();
  if (len > r.remaining()) {
    throw ProtocolError("checkpoint file " + path + ": truncated");
  }
  auto payload_view = r.raw(static_cast<std::size_t>(len));
  std::vector<std::byte> payload(payload_view.begin(), payload_view.end());
  std::uint32_t expected = r.u32();
  r.expect_end();
  if (net::crc32(payload) != expected) {
    throw ProtocolError("checkpoint file " + path + ": CRC mismatch");
  }
  return payload;
}

}  // namespace hdcs::dist
