#pragma once
// Structured event trace: schema-versioned JSONL, one event per line.
//
// The point of this file is that the discrete-event simulator and the real
// TCP server emit the *same* schema: SchedulerCore is the single emitter of
// scheduling events, time-stamped with whatever clock drives it (virtual
// seconds in the sim, wall seconds since server start over TCP). A trace
// from either can be diffed event-for-event or summarised by one tool
// (tools/trace_summary).
//
// Event line shape (flat JSON, parseable by obs::parse_flat_json):
//
//   {"schema":2,"t":12.375,"ev":"unit_issued","client":3,"problem":1,...}
//
// Event types and their fields are listed in docs/OBSERVABILITY.md:
//   unit_issued unit_completed unit_reissued unit_hedged result_duplicate
//   unit_profile client_joined client_left stage_barrier wal_compacted log
//
// Schema history: v2 added the unit_profile event (donor-measured span
// profile merged with the scheduler's lease timeline). v1 lines are still
// parsed; only the emitted version moved.
//
// A Tracer with no sink is "disabled": event() returns a dead builder and
// the cost at every call site is one pointer-null check. Sinks:
//   open(path)   — append JSONL to a file (flushed per line)
//   to_memory()  — collect lines in-process (tests, equivalence checks)
//   set_callback — arbitrary consumer
// Writing is mutex-serialised; builders format off-lock.

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/jsonl.hpp"

namespace hdcs::obs {

inline constexpr int kTraceSchemaVersion = 2;

class Tracer {
 public:
  Tracer() = default;
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Append to a JSONL file; throws IoError if it cannot be opened.
  void open(const std::string& path);
  /// Collect lines in memory; read them back with lines().
  void to_memory();
  /// Send each finished line to a callback (invoked under the write lock).
  void set_callback(std::function<void(const std::string&)> cb);
  /// Drop the sink; subsequent events are no-ops. Flushes the file sink.
  void close();

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Lines captured by to_memory() (copy; thread-safe).
  [[nodiscard]] std::vector<std::string> lines() const;

  /// Fluent single-line event builder. Keys are appended in call order;
  /// the line is emitted when the builder is destroyed (end of the full
  /// expression at the call site). On a disabled tracer every call is a
  /// no-op.
  class Event {
   public:
    Event(Event&& other) noexcept;
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;
    Event& operator=(Event&&) = delete;
    ~Event();

    Event& str(std::string_view key, std::string_view value);
    Event& num(std::string_view key, double value);
    Event& u64(std::string_view key, std::uint64_t value);
    Event& boolean(std::string_view key, bool value);

   private:
    friend class Tracer;
    Event(Tracer* tracer, double t, std::string_view type);
    Tracer* tracer_;  // nullptr = disabled, all appends skipped
    std::string line_;
  };

  /// Start an event at time `t` (caller's clock: virtual or wall seconds).
  [[nodiscard]] Event event(double t, std::string_view type);

 private:
  void write_line(const std::string& line);

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::ofstream file_;
  bool collect_ = false;
  std::vector<std::string> memory_;
  std::function<void(const std::string&)> callback_;
};

/// Parsed view of one trace line; thin sugar over parse_flat_json.
struct TraceRecord {
  int schema = 0;
  double t = 0;
  std::string ev;
  std::map<std::string, JsonValue> fields;  // includes schema/t/ev

  [[nodiscard]] bool has(const std::string& key) const {
    return fields.count(key) != 0;
  }
  [[nodiscard]] double number(const std::string& key) const;
  [[nodiscard]] const std::string& text(const std::string& key) const;
};

/// Parse one JSONL trace line; throws ProtocolError on malformed input or
/// missing schema/t/ev fields.
TraceRecord parse_trace_line(std::string_view line);

/// Mirror every HDCS_LOG emission >= the global level into `tracer` as
/// {"ev":"log","level":...,"msg":...} events (timestamped with wall seconds
/// since the bridge was installed) while still printing to the default
/// stderr sink. Passing nullptr restores plain stderr logging. The tracer
/// must outlive the bridge.
void mirror_logs_to_tracer(Tracer* tracer);

}  // namespace hdcs::obs
