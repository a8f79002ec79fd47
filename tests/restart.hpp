#pragma once
// A scheduler restart at core level, the way Server::start() performs one
// after WAL recovery: restore the exact state image, then enter a new term
// whose client sweep requeues every lease the dead incarnation held.

#include <span>
#include <vector>

#include "dist/scheduler_core.hpp"
#include "util/byte_buffer.hpp"

namespace hdcs::test {

/// The core's exact state image — the bytes a WAL compaction writes.
inline std::vector<std::byte> state_image(const dist::SchedulerCore& core) {
  ByteWriter w;
  core.snapshot_exact(w);
  return w.take();
}

/// Revive `core` (same problems already submitted, same order) from
/// `image`: restore_exact, bump the epoch, and sweep the old term's
/// clients so their leases go back to the queue.
inline void restart_from(std::span<const std::byte> image,
                         dist::SchedulerCore& core, double now) {
  ByteReader r(image);
  core.restore_exact(r);
  r.expect_end();
  core.bump_epoch(core.epoch() + 1);
  for (const auto& c : core.all_client_stats()) {
    if (c.active) core.client_left(c.id, now);
  }
}

}  // namespace hdcs::test
