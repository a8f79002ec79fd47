// hdcs_top — poll a live server's MSG_STATS endpoint.
//
// Connects to a running hdcs server (see hdcs_submit/hdcs_donor), sends a
// FetchStats frame and prints the JSON snapshot: scheduler counters
// (including the replication/vote counters and results_rejected_*), the
// per-client table — with each donor's `rep` reputation score,
// `blacklisted` flag and vote win/loss record — and the process metrics
// registry. No Hello handshake is needed; any connection may ask for
// stats.
//
//   hdcs_top --port 5005                    one snapshot, pretty-printed
//   hdcs_top --port 5005 --watch 2          repeat every 2 s until killed
//   hdcs_top --port 5005 --raw              the JSON document verbatim

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "dist/wire.hpp"
#include "net/message.hpp"
#include "util/error.hpp"

namespace {

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double watch_s = -1;  // <0 = single shot
  bool raw = false;
  bool include_clients = true;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      a.host = next();
    } else if (arg == "--port") {
      a.port = static_cast<std::uint16_t>(std::stoi(next()));
    } else if (arg == "--watch") {
      a.watch_s = std::stod(next());
    } else if (arg == "--raw") {
      a.raw = true;
    } else if (arg == "--no-clients") {
      a.include_clients = false;
    } else {
      std::fprintf(stderr,
                   "usage: hdcs_top --port P [--host H] [--watch SECONDS] "
                   "[--raw] [--no-clients]\n");
      std::exit(arg == "--help" ? 0 : 2);
    }
  }
  if (a.port == 0) {
    std::fprintf(stderr, "hdcs_top: --port is required\n");
    std::exit(2);
  }
  return a;
}

/// Indent a one-line JSON document for terminal reading. Purely lexical
/// (tracks string/escape state and brace depth) — no parser needed.
std::string prettify(const std::string& json, int max_depth = 2) {
  std::string out;
  out.reserve(json.size() * 2);
  int depth = 0;
  bool in_string = false, escaped = false;
  auto newline = [&] {
    out += '\n';
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  };
  for (char c : json) {
    if (in_string) {
      out += c;
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        out += c;
        break;
      case '{':
      case '[':
        out += c;
        ++depth;
        if (depth <= max_depth) newline();
        break;
      case '}':
      case ']':
        --depth;
        if (depth < max_depth) newline();
        out += c;
        break;
      case ',':
        out += c;
        if (depth <= max_depth) newline();
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Lexically pull the number following `"key":` out of a JSON document.
/// Metric and counter names are unique across the snapshot, so no real
/// parser is needed. `from` restricts the search start (nested lookups).
double find_number(const std::string& json, const std::string& key,
                   std::size_t from = 0, bool* found = nullptr) {
  std::string needle = "\"" + key + "\":";
  std::size_t at = json.find(needle, from);
  if (found) *found = at != std::string::npos;
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/// The `sub` number inside the object value of `"obj":{...}` — e.g. the
/// "sum" of one named histogram in the metrics registry snapshot.
double find_nested_number(const std::string& json, const std::string& obj,
                          const std::string& sub, bool* found = nullptr) {
  std::size_t at = json.find("\"" + obj + "\":{");
  if (at == std::string::npos) {
    if (found) *found = false;
    return 0;
  }
  return find_number(json, sub, at, found);
}

/// The string value following `"key":"` — empty when absent.
std::string find_string(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  std::size_t at = json.find(needle);
  if (at == std::string::npos) return {};
  std::size_t start = at + needle.size();
  std::size_t end = json.find('"', start);
  if (end == std::string::npos) return {};
  return json.substr(start, end - start);
}

/// One-glance header above the pretty JSON: donor count, scheduler
/// backlog, parked requests, held acks, bulk-plane cache hit-rate, and
/// the mean per-phase span costs from the unit profiles (absent until a
/// donor submits).
void print_digest(const std::string& json) {
  double connected = find_number(json, "connected_clients");
  double pending = find_number(json, "units_pending");
  double hits = find_number(json, "bulk.blobs_cache_hit");
  double sent = find_number(json, "bulk.blobs_sent");
  std::string tier = find_string(json, "simd_tier");
  // Role (primary vs unpromoted standby), fencing epoch, and the WAL
  // position, when the snapshot carries them.
  std::string role = find_string(json, "role");
  if (!role.empty()) {
    double epoch = find_number(json, "epoch");
    bool has_lsn = false;
    double lsn = find_number(json, "wal_lsn", 0, &has_lsn);
    std::printf("%s | epoch %.0f", role.c_str(), epoch);
    if (has_lsn && lsn > 0) std::printf(" | wal lsn %.0f", lsn);
    // The durability state machine (durable / degraded / none) — the
    // operator's first stop when a disk is dying under the server.
    std::string durability = find_string(json, "durability");
    if (!durability.empty() && durability != "none") {
      std::printf(" | %s", durability.c_str());
    }
    std::printf("\n");
  }
  std::printf("donors %.0f | pending %.0f", connected, pending);
  // RequestWork replies the server holds until work can exist (long-poll).
  bool has_parked = false;
  double parked = find_number(json, "parked_requests", 0, &has_parked);
  if (has_parked) std::printf(" | parked %.0f", parked);
  // ResultAcks the server holds until the group commit's fsync covers them.
  bool has_held = false;
  double held = find_number(json, "held_acks", 0, &has_held);
  if (has_held) std::printf(" | held acks %.0f", held);
  if (!tier.empty()) std::printf(" | simd %s", tier.c_str());
  if (hits + sent > 0) {
    std::printf(" | blob cache hit-rate %.1f%% (%.0f hit / %.0f sent)",
                100.0 * hits / (hits + sent), hits, sent);
  }
  std::printf("\n");
  // Event-loop health (epoll servers): registered fds, per-connection
  // write-queue high water, and loop lag p99 — how late the loop thread
  // runs its posted work, the first number to look at when request RTTs
  // climb. Absent from pre-loop servers, so only printed when present.
  bool has_loop = false;
  double loop_fds = find_number(json, "net.loop.fds", 0, &has_loop);
  if (has_loop) {
    std::printf("loop: %.0f fds", loop_fds);
    double hwm = find_number(json, "net.loop.write_queue_hwm");
    std::printf(" | write-queue hwm %.0f KiB", hwm / 1024.0);
    bool has_lag = false;
    double lag_count = find_nested_number(json, "net.loop.lag_s", "count",
                                          &has_lag);
    if (has_lag && lag_count > 0) {
      double lag_p99 = find_nested_number(json, "net.loop.lag_s", "p99");
      std::printf(" | lag p99 %.3gms", 1e3 * lag_p99);
    }
    double stalls = find_number(json, "net.loop.backpressure_stalls");
    double shed = find_number(json, "net.loop.connections_shed");
    if (stalls > 0) std::printf(" | backpressure stalls %.0f", stalls);
    if (shed > 0) std::printf(" | shed %.0f", shed);
    std::printf("\n");
  }
  constexpr const char* kPhases[] = {"queue_wait", "blob_fetch", "decompress",
                                     "compute",    "encode",     "submit"};
  std::string line;
  for (const char* phase : kPhases) {
    std::string name = std::string("unit.") + phase + "_s";
    bool found = false;
    double count = find_nested_number(json, name, "count", &found);
    if (!found || count <= 0) continue;
    double sum = find_nested_number(json, name, "sum");
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s %.3gms", phase,
                  1e3 * sum / count);
    line += buf;
  }
  if (!line.empty()) std::printf("phase means:%s\n", line.c_str());
}

std::string fetch_snapshot(const Args& a, std::uint64_t correlation) {
  auto stream = hdcs::net::TcpStream::connect(a.host, a.port);
  hdcs::dist::FetchStatsPayload req;
  req.include_clients = a.include_clients;
  hdcs::net::write_message(stream,
                           hdcs::dist::encode_fetch_stats(req, correlation));
  hdcs::net::Message reply = hdcs::net::read_message(stream);
  return hdcs::dist::decode_stats_snapshot(reply).json;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  std::uint64_t correlation = 1;
  try {
    for (;;) {
      std::string json = fetch_snapshot(args, correlation++);
      if (args.raw) {
        std::printf("%s\n", json.c_str());
      } else {
        print_digest(json);
        std::printf("%s\n", prettify(json).c_str());
      }
      if (args.watch_s < 0) break;
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::duration<double>(args.watch_s));
    }
  } catch (const hdcs::Error& e) {
    std::fprintf(stderr, "hdcs_top: %s\n", e.what());
    return 1;
  }
  return 0;
}
