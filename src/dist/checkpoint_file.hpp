#pragma once
// Durable checkpoint files.
//
// The WAL's base snapshot (base.ckpt: start lsn + SchedulerCore::
// snapshot_exact() bytes) becomes crash-safe on disk via the classic recipe: write to a ".tmp" sibling, fsync the
// file, rename() over the destination, fsync the directory. A reader after
// kill -9 sees either the previous complete checkpoint or the new complete
// checkpoint — never a torn mix.
//
// File layout: magic "HKCP"(u32) version(u32) payload_len(u64)
//              payload[payload_len] crc32(u32)
// The CRC covers the payload; a torn or bit-rotted file surfaces as
// ProtocolError instead of feeding garbage into restore_exact().

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hdcs::dist {

/// Atomically replace `path` with a checkpoint file holding `payload`.
/// Throws IoError on filesystem failure.
void write_checkpoint_file(const std::string& path,
                           std::span<const std::byte> payload);

/// Read and validate a checkpoint file. Returns nullopt if `path` does not
/// exist; throws ProtocolError on bad magic/version/CRC/truncation, IoError
/// on I/O failure.
std::optional<std::vector<std::byte>> read_checkpoint_file(
    const std::string& path);

}  // namespace hdcs::dist
