#pragma once
// Non-blocking epoll event loop.
//
// One EventLoop drives many file descriptors from a single thread: fds are
// registered with a callback, epoll_wait dispatches readiness, and an
// eventfd lets any thread wake the loop to run posted tasks. The dist
// server runs one loop per --io-thread and keeps every blocking operation
// (scheduler calls, WAL fsyncs, WAL compactions) on a worker pool, so ten
// thousand idle donor connections cost file descriptors, not OS threads.
//
// Threading contract:
//   - run() executes on exactly one thread (the "loop thread").
//   - add_fd / modify_fd / remove_fd / add_periodic are loop-thread-only
//     (call them from a posted task or a callback).
//   - post() and stop() are safe from any thread.
//
// Observability (process-global registry):
//   net.loop.wakeups   epoll_wait returns (counter)
//   net.loop.lag_s     post()->run and timer scheduled->fired latency
//   net.loop.fds       registered fds across all loops (gauge, +/- deltas)

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace hdcs::net {

class EventLoop {
 public:
  /// Receives the raw epoll event mask (EPOLLIN / EPOLLOUT / EPOLLERR...).
  using FdCallback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Dispatch events until stop(). Call on the loop's dedicated thread.
  void run();

  /// Ask run() to return; safe from any thread, idempotent.
  void stop();

  /// Run `fn` on the loop thread soon; safe from any thread. Tasks posted
  /// after the loop exits are discarded when the loop is destroyed.
  void post(std::function<void()> fn);

  [[nodiscard]] bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_;
  }

  /// Register `fd` for `events`; `cb` fires with the ready mask. The fd is
  /// not owned — the caller closes it after remove_fd.
  void add_fd(int fd, std::uint32_t events, FdCallback cb);
  void modify_fd(int fd, std::uint32_t events);
  /// Unregister. Safe from inside a callback (pending events for the fd in
  /// the current dispatch batch are dropped, and fd-number reuse by a later
  /// add_fd in the same batch is not confused with the dead registration).
  void remove_fd(int fd);

  /// Run `fn` every interval_s while the loop runs (loop thread only; the
  /// first firing is one interval from now). Used for stall sweeps.
  void add_periodic(double interval_s, std::function<void()> fn);

  /// Registered fd count (loop thread only; for tests and stats).
  [[nodiscard]] std::size_t fd_count() const { return fds_.size(); }

 private:
  struct Registration {
    FdCallback cb;
    std::uint32_t events = 0;
    bool dead = false;
  };
  struct Periodic {
    double interval_s;
    std::function<void()> fn;
    std::chrono::steady_clock::time_point next;
  };
  struct PostedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point at;
  };

  void drain_wake_fd();
  void run_posted();
  [[nodiscard]] int timeout_ms_until_next_periodic() const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread::id loop_thread_;
  bool stopping_ = false;  // loop thread's view; set via a posted stop task

  std::mutex post_mu_;
  std::vector<PostedTask> posted_;
  bool stop_requested_ = false;  // guarded by post_mu_

  // Registrations are heap-allocated so epoll_event.data.ptr stays valid;
  // removed ones park in graveyard_ until the current dispatch batch ends.
  std::unordered_map<int, std::unique_ptr<Registration>> fds_;
  std::vector<std::unique_ptr<Registration>> graveyard_;
  bool dispatching_ = false;

  std::vector<Periodic> periodics_;
};

}  // namespace hdcs::net
