// hdcs_donor: the deployable donor-side program.
//
// Run this as a low-priority background service on any spare machine (the
// paper deployed it on ~200 lab PCs): it connects to the server, measures
// its own speed, and donates cycles until told to stop.
//
// Usage:
//   hdcs_donor --host 10.0.0.1 --port 4090 [--name lab3-pc07]
//              [--persist true] [--throttle 1] [--cpus 2] [--threads 1]
//              [--max-connect-attempts 8] [--backoff-initial 0.05]
//              [--backoff-max 2] [--servers 10.0.0.1:4090,10.0.0.2:4090]
//
// --servers A:P,B:P
//                 ordered failover list (supersedes --host/--port): the
//                 donor sticks with the endpoint that last answered and
//                 rotates to the next on a failed connect or handshake —
//                 so listing a primary and its hot standby keeps the donor
//                 working through a failover (docs/ROBUSTNESS.md).
// --persist true  keeps polling for new problems forever (service mode);
//                 the default exits once all submitted problems finish.
// --throttle N    pretends to be an N-times slower machine (testing aid).
// --cpus N        runs N independent donor clients (one per CPU, each with
//                 its own connection and work units). The donor exits 1
//                 when every one of them failed, e.g. gave up connecting.
// --threads N     worker threads *inside* each unit (deterministic merge;
//                 the result payload is byte-identical to --threads 1).
//                 Prefer --cpus for throughput; --threads for latency on
//                 large units. See docs/KERNELS.md.
// --max-connect-attempts N
//                 consecutive failed connects before giving up; 0 retries
//                 forever (the right setting for a deployed service, and
//                 the default when --persist true). 1 = fail fast.
// --backoff-initial S / --backoff-max S
//                 reconnect backoff window: the delay starts at the
//                 initial value, doubles per failure up to the max, with
//                 per-donor jitter. See docs/ROBUSTNESS.md.
// --cache-dir D   persist the blob cache (database chunks, stage trees)
//                 under directory D so a restarted donor skips
//                 re-downloading blobs it already has. Empty = memory only.
// --cache-mb N / --cache-disk-mb N
//                 memory / disk budgets for that cache (default 64 / 256).
// --corrupt-rate P [--corrupt-seed N]
//                 fault injection (test-only): corrupt fraction P of
//                 result payloads before submitting — a "lying donor"
//                 for exercising the server's replication voting. The
//                 corrupted bytes carry a matching digest, so only
//                 quorum voting catches them. Deterministic per
//                 (seed, name, unit).

#include <cstdio>
#include <map>
#include <set>

#include "dboot/dboot.hpp"
#include "dist/client.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

using namespace hdcs;

/// Every flag main() reads. Anything else is refused by name, so a typo
/// cannot be silently ignored.
const std::set<std::string> kFlags = {
    "backoff-initial", "backoff-max", "cache-dir", "cache-disk-mb", "cache-mb",
    "corrupt-rate", "corrupt-seed", "cpus", "host", "max-connect-attempts",
    "name", "persist", "port", "servers", "threads", "throttle"};

int main(int argc, char** argv) {
  try {
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw InputError("expected --flag: " + key);
      if (!kFlags.count(key.substr(2))) throw InputError("unknown flag " + key);
      if (i + 1 >= argc) throw InputError("missing value for " + key);
      args[key.substr(2)] = argv[i + 1];
    }
    auto get = [&](const std::string& key, const std::string& def) {
      auto it = args.find(key);
      return it == args.end() ? def : it->second;
    };

    // A donor binary must carry every Algorithm it may be asked to run
    // (the C++ stand-in for Java's mobile code; see dist/registry.hpp).
    dsearch::register_algorithm();
    dprml::register_algorithm();
    dboot::register_algorithm();

    dist::ClientConfig cfg;
    std::string servers = get("servers", "");
    if (!servers.empty()) {
      for (const auto& entry : split(servers, ',')) {
        auto colon = entry.rfind(':');
        if (colon == std::string::npos)
          throw InputError("--servers expects HOST:PORT,... got: " + entry);
        cfg.servers.push_back(
            {entry.substr(0, colon),
             static_cast<std::uint16_t>(parse_i64(entry.substr(colon + 1)))});
      }
    } else {
      cfg.server_host = get("host", "127.0.0.1");
      cfg.server_port = static_cast<std::uint16_t>(parse_i64(get("port", "")));
    }
    cfg.name = get("name", "donor");
    cfg.throttle = parse_f64(get("throttle", "1"));
    cfg.exit_when_idle = !parse_bool(get("persist", "false"));
    auto threads = parse_i64(get("threads", "1"));
    if (threads < 1) throw InputError("--threads must be >= 1");
    cfg.exec_threads = static_cast<std::size_t>(threads);
    // A persistent donor should outlast any server outage by default; an
    // on-demand donor keeps the bounded default so typos fail fast.
    cfg.max_connect_attempts = static_cast<int>(parse_i64(
        get("max-connect-attempts", cfg.exit_when_idle ? "8" : "0")));
    cfg.backoff_initial_s = parse_f64(get("backoff-initial", "0.05"));
    cfg.backoff_max_s = parse_f64(get("backoff-max", "2"));
    if (cfg.backoff_initial_s <= 0 || cfg.backoff_max_s < cfg.backoff_initial_s)
      throw InputError("--backoff-max must be >= --backoff-initial > 0");
    cfg.corrupt_rate = parse_f64(get("corrupt-rate", "0"));
    if (cfg.corrupt_rate < 0 || cfg.corrupt_rate > 1)
      throw InputError("--corrupt-rate must be in [0, 1]");
    cfg.corrupt_seed =
        static_cast<std::uint64_t>(parse_i64(get("corrupt-seed", "0")));
    cfg.blob_cache_dir = get("cache-dir", "");
    cfg.blob_cache_bytes =
        static_cast<std::size_t>(parse_i64(get("cache-mb", "64"))) * 1024 * 1024;
    cfg.blob_cache_disk_bytes =
        static_cast<std::size_t>(parse_i64(get("cache-disk-mb", "256"))) * 1024 *
        1024;

    int cpus = static_cast<int>(parse_i64(get("cpus", "1")));

    set_log_level(LogLevel::kInfo);
    const std::string& host0 =
        cfg.servers.empty() ? cfg.server_host : cfg.servers.front().host;
    std::uint16_t port0 =
        cfg.servers.empty() ? cfg.server_port : cfg.servers.front().port;
    std::printf("donating %d cpu(s) to %s:%u%s as '%s'%s\n", cpus,
                host0.c_str(), port0,
                cfg.servers.size() > 1 ? " (+failover)" : "", cfg.name.c_str(),
                cfg.exit_when_idle ? "" : " (service mode)");
    auto all_stats = dist::Client::run_pool(cfg, cpus);
    std::uint64_t units = 0;
    double seconds = 0;
    for (const auto& s : all_stats) {
      units += s.units_processed;
      seconds += s.compute_seconds;
    }
    std::printf("done: %llu units processed, %.1f s of compute donated\n",
                static_cast<unsigned long long>(units), seconds);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // A bad command line gets the usage; a donor whose every worker lost
    // its server (run_pool rethrows) just fails.
    if (dynamic_cast<const InputError*>(&e) == nullptr) return 1;
    std::fprintf(stderr,
                 "usage: hdcs_donor --host <ip> --port <port> [--name n] "
                 "[--servers a:p,b:p] "
                 "[--persist true|false] [--throttle x] [--cpus n] "
                 "[--threads n] [--max-connect-attempts n] "
                 "[--backoff-initial s] [--backoff-max s] [--cache-dir d] "
                 "[--cache-mb n] [--cache-disk-mb n]\n");
    return 1;
  }
}
