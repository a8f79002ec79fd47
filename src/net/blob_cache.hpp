#pragma once
// Donor-side content-addressed blob cache (protocol v4 bulk-data plane).
//
// Blobs are immutable byte strings addressed by a 64-bit FNV-1a digest of
// their content. A donor keeps every blob it has downloaded in a bounded
// LRU memory tier, optionally mirrored to a disk directory so the cache
// survives donor restarts — the BOINC/Condor trick that lets a re-leased or
// replicated unit skip re-downloading the database chunk it shares with an
// earlier unit. get() re-verifies the digest on every hit; a mismatch
// (bit-rot, a truncated disk file, another process scribbling on the cache
// dir) silently evicts the entry and reports a miss, so the caller simply
// re-fetches from the server — corruption can cost a transfer, never a
// wrong input.
//
// Not thread-safe: each dist::Client owns one cache and touches it only
// from its work-loop thread.

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hdcs::net {

/// 64-bit FNV-1a content digest — the blob address. Matches the digest the
/// scheduler computes when interning blobs, so both sides agree by
/// construction. The tree's one FNV-1a: the DPRml eval-cache prefix, the
/// donor's name seed and the simulator's result-cache key hash with it too.
std::uint64_t blob_digest(std::span<const std::byte> data);

struct BlobCacheConfig {
  /// LRU byte budget for the in-memory tier.
  std::size_t memory_budget_bytes = 64ull * 1024 * 1024;
  /// Optional disk tier: blobs are written as `<dir>/<digest hex>.blob`.
  /// Empty = memory only. The directory is created if missing.
  std::string disk_dir;
  /// Byte budget for the disk tier (oldest files evicted first).
  std::size_t disk_budget_bytes = 256ull * 1024 * 1024;
};

class BlobCache {
 public:
  explicit BlobCache(BlobCacheConfig config = {});

  /// Look a blob up by digest (memory first, then disk). A disk hit is
  /// promoted to the memory tier. Returns nullopt on miss or when the
  /// stored bytes no longer hash to `digest` (the corrupt copy is dropped).
  std::optional<std::vector<std::byte>> get(std::uint64_t digest);

  /// Insert a blob. The digest is trusted (callers verify on receive); a
  /// blob larger than the memory budget still lands on disk when a disk
  /// tier is configured.
  void put(std::uint64_t digest, std::vector<std::byte> bytes);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;       // memory-tier LRU evictions
    std::uint64_t corrupt_dropped = 0; // digest-mismatch entries discarded
    std::uint64_t disk_write_failures = 0;  // disk-tier puts that failed
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t memory_bytes() const { return memory_bytes_; }
  [[nodiscard]] std::size_t disk_bytes() const { return disk_bytes_; }

 private:
  struct Entry {
    std::uint64_t digest;
    std::vector<std::byte> bytes;
  };
  using LruList = std::list<Entry>;

  [[nodiscard]] std::string disk_path(std::uint64_t digest) const;
  void trim_memory();
  void trim_disk();
  void disk_put(std::uint64_t digest, std::span<const std::byte> bytes);
  std::optional<std::vector<std::byte>> disk_get(std::uint64_t digest);
  void disk_drop(std::uint64_t digest);

  BlobCacheConfig config_;
  LruList lru_;  // front = most recently used
  std::map<std::uint64_t, LruList::iterator> index_;
  std::size_t memory_bytes_ = 0;
  // Disk tier bookkeeping: sizes plus insertion order for budget eviction.
  std::map<std::uint64_t, std::size_t> disk_index_;
  std::list<std::uint64_t> disk_order_;  // front = oldest
  std::size_t disk_bytes_ = 0;
  Stats stats_;
};

}  // namespace hdcs::net
