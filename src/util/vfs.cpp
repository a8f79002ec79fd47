#include "util/vfs.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace hdcs::vfs {

namespace {

// The installed plan is shared-owned: an operation that loaded it keeps it
// alive even if a test's fault scope ends mid-operation (a server thread
// can be inside a faulted compact when the scope unwinds), so uninstall
// never races the plan's destructor. The atomic flag keeps the common
// no-plan path lock-free.
std::atomic<bool> g_plan_installed{false};
std::mutex g_plan_mu;
std::shared_ptr<StorageFaultPlan> g_plan;

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Write every byte of `data` to `fd`, retrying short writes and EINTR.
void write_raw(int fd, const std::string& path,
               std::span<const std::byte> data) {
  const auto* p = reinterpret_cast<const char*>(data.data());
  std::size_t remaining = data.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write " + path);
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
}

}  // namespace

// ---- StorageFaultPlan ----

StorageFaultPlan::StorageFaultPlan(StorageFaultSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed) {}

bool StorageFaultPlan::matches(const std::string& path) const {
  return spec_.path_filter.empty() ||
         path.find(spec_.path_filter) != std::string::npos;
}

bool StorageFaultPlan::draw(double prob) {
  if (prob <= 0) return false;
  return rng_.next_double() < prob;
}

bool StorageFaultPlan::fail_open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!matches(path)) return false;
  if (!draw(spec_.open_error_prob)) return false;
  ++stats_.open_errors;
  return true;
}

StorageFaultPlan::WriteFault StorageFaultPlan::write_fault(
    const std::string& path, std::size_t len, std::size_t& keep_prefix) {
  keep_prefix = 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (!matches(path)) return WriteFault::kNone;
  if (draw(spec_.write_error_prob)) {
    ++stats_.write_errors;
    return WriteFault::kError;
  }
  if (draw(spec_.short_write_prob)) {
    keep_prefix = len == 0 ? 0 : static_cast<std::size_t>(rng_.next_below(len));
    ++stats_.short_writes;
    live_bytes_ += keep_prefix;
    sizes_[path] += keep_prefix;
    return WriteFault::kShort;
  }
  if (spec_.disk_capacity_bytes > 0 &&
      live_bytes_ + len > spec_.disk_capacity_bytes) {
    keep_prefix = live_bytes_ >= spec_.disk_capacity_bytes
                      ? 0
                      : static_cast<std::size_t>(spec_.disk_capacity_bytes -
                                                 live_bytes_);
    ++stats_.enospc;
    live_bytes_ += keep_prefix;
    sizes_[path] += keep_prefix;
    return WriteFault::kNoSpace;
  }
  live_bytes_ += len;
  sizes_[path] += len;
  return WriteFault::kNone;
}

bool StorageFaultPlan::fail_sync(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!matches(path)) return false;
  if (!draw(spec_.sync_error_prob)) return false;
  ++stats_.sync_errors;
  return true;
}

double StorageFaultPlan::sync_delay(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!matches(path) || !draw(spec_.sync_delay_prob)) return 0;
  ++stats_.sync_delays;
  return spec_.sync_delay_s;
}

StorageFaultPlan::RenameFault StorageFaultPlan::rename_fault(
    const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!matches(to)) return RenameFault::kNone;
  if (draw(spec_.rename_error_prob)) {
    ++stats_.rename_errors;
    return RenameFault::kError;
  }
  if (draw(spec_.torn_rename_prob)) {
    ++stats_.torn_renames;
    return RenameFault::kTorn;
  }
  return RenameFault::kNone;
}

bool StorageFaultPlan::fail_unlink(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!matches(path)) return false;
  if (!draw(spec_.unlink_error_prob)) return false;
  ++stats_.unlink_errors;
  return true;
}

void StorageFaultPlan::note_unlink(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  synced_.erase(path);
  auto it = sizes_.find(path);
  if (it == sizes_.end()) return;
  live_bytes_ -= it->second;
  sizes_.erase(it);
}

void StorageFaultPlan::note_truncate(const std::string& path,
                                     std::uint64_t new_size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto s = synced_.find(path); s != synced_.end()) {
    s->second = std::min(s->second, new_size);
  }
  auto it = sizes_.find(path);
  if (it == sizes_.end()) return;  // never charged: nothing to credit back
  if (it->second > new_size) {
    live_bytes_ -= it->second - new_size;
    it->second = new_size;
  }
  if (it->second == 0) sizes_.erase(it);
}

void StorageFaultPlan::note_rename(const std::string& from,
                                   const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t moved = 0;
  if (auto it = sizes_.find(from); it != sizes_.end()) {
    moved = it->second;
    sizes_.erase(it);
  }
  if (auto it = sizes_.find(to); it != sizes_.end()) {
    live_bytes_ -= it->second;  // the rename replaced the old destination
    sizes_.erase(it);
  }
  if (moved > 0) sizes_[to] = moved;
  synced_.erase(to);
  if (auto it = synced_.find(from); it != synced_.end()) {
    synced_[to] = it->second;
    synced_.erase(from);
  }
}

void StorageFaultPlan::note_sync(const std::string& path, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (matches(path)) synced_[path] = bytes;
}

std::uint64_t StorageFaultPlan::synced_bytes(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = synced_.find(path);
  return it == synced_.end() ? 0 : it->second;
}

StorageFaultPlan::Stats StorageFaultPlan::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t StorageFaultPlan::live_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_bytes_;
}

void install_storage_fault_plan(std::shared_ptr<StorageFaultPlan> plan) {
  std::lock_guard<std::mutex> lock(g_plan_mu);
  g_plan = std::move(plan);
  g_plan_installed.store(g_plan != nullptr, std::memory_order_release);
}

std::shared_ptr<StorageFaultPlan> installed_storage_fault_plan() {
  if (!g_plan_installed.load(std::memory_order_acquire)) return nullptr;
  std::lock_guard<std::mutex> lock(g_plan_mu);
  return g_plan;
}

// ---- File ----

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      poisoned_(std::exchange(other.poisoned_, false)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    poisoned_ = std::exchange(other.poisoned_, false);
  }
  return *this;
}

File::~File() { close(); }

File File::create(const std::string& path) {
  if (auto plan = installed_storage_fault_plan();
      plan && plan->fail_open(path)) {
    throw IoError("open " + path + ": injected I/O error");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open " + path);
  if (auto plan = installed_storage_fault_plan()) plan->note_truncate(path, 0);
  return File(fd, path);
}

File File::append(const std::string& path, bool create_missing) {
  if (auto plan = installed_storage_fault_plan();
      plan && plan->fail_open(path)) {
    throw IoError("open " + path + ": injected I/O error");
  }
  const int flags = O_WRONLY | O_APPEND | (create_missing ? O_CREAT : 0);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throw_errno("open " + path);
  return File(fd, path);
}

void File::write_all(std::span<const std::byte> data) {
  if (fd_ < 0) throw IoError("write " + path_ + ": file not open");
  if (poisoned_) {
    throw IoError("write " + path_ +
                  ": handle poisoned by failed fsync (rebuild the file)");
  }
  if (data.empty()) return;
  if (auto plan = installed_storage_fault_plan()) {
    std::size_t keep = 0;
    switch (plan->write_fault(path_, data.size(), keep)) {
      case StorageFaultPlan::WriteFault::kError:
        throw IoError("write " + path_ + ": injected I/O error");
      case StorageFaultPlan::WriteFault::kShort:
        write_raw(fd_, path_, data.first(keep));
        throw IoError("write " + path_ + ": injected short write (" +
                      std::to_string(keep) + "/" +
                      std::to_string(data.size()) + " bytes landed)");
      case StorageFaultPlan::WriteFault::kNoSpace:
        write_raw(fd_, path_, data.first(keep));
        throw IoError("write " + path_ + ": No space left on device (injected" +
                      (keep > 0 ? ", " + std::to_string(keep) +
                                      " bytes landed first)"
                                : ")"));
      case StorageFaultPlan::WriteFault::kNone:
        break;
    }
  }
  write_raw(fd_, path_, data);
}

void File::sync() {
  if (fd_ < 0) throw IoError("fsync " + path_ + ": file not open");
  if (poisoned_) {
    throw IoError("fsync " + path_ +
                  ": handle poisoned by earlier failed fsync (rebuild the "
                  "file, do not retry the fsync)");
  }
  auto plan = installed_storage_fault_plan();
  if (plan && plan->fail_sync(path_)) {
    poisoned_ = true;
    throw IoError("fsync " + path_ + ": injected I/O error");
  }
  // What this fsync covers: everything written before it began.
  struct stat st{};
  if (plan) {
    if (double d = plan->sync_delay(path_); d > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(d));
    }
    if (::fstat(fd_, &st) != 0) throw_errno("fstat " + path_);
  }
  if (::fsync(fd_) != 0) {
    poisoned_ = true;
    throw_errno("fsync " + path_);
  }
  if (plan) plan->note_sync(path_, static_cast<std::uint64_t>(st.st_size));
}

File File::reopen() const {
  if (fd_ < 0) throw IoError("reopen " + path_ + ": file not open");
  const int fd = ::open(path_.c_str(), O_WRONLY);
  if (fd < 0) throw_errno("open " + path_);
  return File(fd, path_);
}

void File::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  poisoned_ = false;
}

// ---- free functions ----

std::vector<std::byte> read_file(const std::string& path) {
  auto bytes = read_file_if_exists(path);
  if (!bytes) throw IoError("open " + path + ": " + std::strerror(ENOENT));
  return std::move(*bytes);
}

std::optional<std::vector<std::byte>> read_file_if_exists(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("open " + path);
  }
  std::vector<std::byte> out;
  std::byte buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("read " + path);
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

void make_dirs(const std::string& dir) {
  if (dir.empty()) return;
  std::string partial;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t next = dir.find('/', pos + 1);
    partial = next == std::string::npos ? dir : dir.substr(0, next);
    pos = next;
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      throw_errno("mkdir " + partial);
    }
  }
}

void rename_file(const std::string& from, const std::string& to) {
  auto plan = installed_storage_fault_plan();
  if (plan) {
    switch (plan->rename_fault(to)) {
      case StorageFaultPlan::RenameFault::kError:
        throw IoError("rename " + from + " -> " + to + ": injected I/O error");
      case StorageFaultPlan::RenameFault::kTorn: {
        // A crash mid-rename on a non-atomic filesystem: the destination
        // ends up a truncated copy of the source, the source is gone.
        // Performed with raw syscalls so the carnage itself is not
        // re-faulted.
        const auto src = read_file(from);
        const std::size_t prefix = src.size() / 2;
        const int fd = ::open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
          write_raw(fd, to, std::span<const std::byte>(src).first(prefix));
          ::close(fd);
        }
        ::unlink(from.c_str());
        plan->note_rename(from, to);
        plan->note_truncate(to, prefix);
        throw IoError("rename " + from + " -> " + to +
                      ": injected torn rename (" + std::to_string(prefix) +
                      "/" + std::to_string(src.size()) + " bytes at " + to +
                      ")");
      }
      case StorageFaultPlan::RenameFault::kNone:
        break;
    }
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    throw_errno("rename " + from + " -> " + to);
  }
  if (plan) plan->note_rename(from, to);
}

bool remove_file(const std::string& path) noexcept {
  auto plan = installed_storage_fault_plan();
  if (plan && plan->fail_unlink(path)) return false;
  if (::unlink(path.c_str()) != 0) return false;
  if (plan) plan->note_unlink(path);
  return true;
}

void truncate_file(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    throw_errno("truncate " + path);
  }
  if (auto plan = installed_storage_fault_plan()) {
    plan->note_truncate(path, size);
  }
}

void sync_parent_dir(const std::string& path) noexcept {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);  // best-effort; some filesystems refuse directory fsync
    ::close(fd);
  }
}

std::uint64_t dir_bytes(const std::string& dir) noexcept {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::uint64_t total = 0;
  while (dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    struct stat st{};
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<std::uint64_t>(st.st_size);
    }
  }
  ::closedir(d);
  return total;
}

bool exists(const std::string& path) noexcept {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace hdcs::vfs
