// hdcs_submit: the deployable server-side program.
//
// Starts the distributed server, submits one problem described by a config
// file (the paper's user workflow: "they just provide a DataManager, an
// Algorithm, additional required classes, and data to be processed"),
// waits for donors to finish it, and writes the result.
//
// Usage:
//   hdcs_submit --app dsearch --db db.fasta --queries q.fasta
//               [--config search.cfg] [--port 4090] [--output hits.txt]
//               [--replicas 2] [--quorum 2] [--spot-check 0.05]
//               [--wal-dir state.wal] [--standby-of HOST:PORT]
//               [--failover-timeout 2]
//               [--durability continue|fail-stop] [--wal-budget-mb 0]
//               [--max-clients 0] [--blob-budget-mb 0]
//               [--io-threads 1] [--workers 4] [--max-write-buffer-mb 64]
//   hdcs_submit --app dprml  --alignment aln.fasta [--config ml.cfg] ...
//   hdcs_submit --app dboot  --alignment aln.fasta [--config boot.cfg] ...
//
// --wal-dir DIR turns on the write-ahead log, the server's durability:
// every accepted result is durable before its ack (one fsync commits a
// group of results), so a kill -9 loses nothing, and rerunning the same
// command replays the log and finishes the remaining units instead of
// starting over. The config file
// can also set max_attempts_per_unit to quarantine "poison" units that
// repeatedly kill donors (see docs/ROBUSTNESS.md).
//
// --standby-of HOST:PORT starts this process as a hot standby of a
// primary running with the same problems: it mirrors the primary's state
// live and promotes itself — bumping the fencing epoch — once the primary
// has been silent for --failover-timeout seconds. Point donors at both
// with  hdcs_donor --servers primary:P,standby:P.
//
// SIGINT/SIGTERM shut down gracefully: connected donors are told to stop
// (kShutdown on their next request). Nothing is left to save — every
// acked result is already in the WAL. A finished job drains the same way,
// waiting up to 10 s for its donors to hang up before the server stops.
//
// --durability picks what a WAL disk fault does: "continue" (default)
// keeps scheduling non-durably and re-arms when the disk recovers;
// "fail-stop" drains and exits with status 3 so an operator (or a
// supervisor) restarts onto healthy storage. --wal-budget-mb caps the
// WAL directory (forced compaction sheds folded segments before ENOSPC);
// --max-clients and --blob-budget-mb shed load with RetryLater NACKs that
// v7 donors honour with backoff. See docs/ROBUSTNESS.md.
//
// --replicas K enables result certification: every unit is computed by K
// distinct donors and merged only when --quorum digests agree (default:
// majority of K). Donors with a clean voting record run un-replicated,
// audited at random with probability --spot-check; donors that lose votes
// are re-replicated and eventually blacklisted.
//
// Donor machines then run:  hdcs_donor --host <ip> --port <port>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "dboot/dboot.hpp"
#include "dist/server.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

using namespace hdcs;

namespace {

/// Set by the SIGINT/SIGTERM handler; the wait loop polls it and drains
/// (donors get a clean kShutdown) instead of dying mid-exchange.
std::atomic<int> g_signal{0};

/// How long a finished job waits for its donors to leave before the server
/// stops: long enough for a donor mid-unit (say, a hedged copy) to submit,
/// collect its ack and say Goodbye; a longer unit loses its session.
constexpr double kDrainGraceS = 10.0;

void on_signal(int sig) { g_signal.store(sig); }

/// Every flag run() reads. Anything else is refused by name, so a typo or
/// a retired flag (such as --checkpoint) cannot be silently ignored.
const std::set<std::string> kFlags = {
    "alignment", "app", "blob-budget-mb", "config", "db", "durability",
    "failover-timeout", "io-threads", "max-clients", "max-write-buffer-mb",
    "output", "port", "queries", "quorum", "replicas", "spot-check",
    "standby-of", "trace", "wal-budget-mb", "wal-dir", "workers"};

struct Args {
  std::map<std::string, std::string> values;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw InputError("expected --flag, got: " + key);
      }
      if (!kFlags.count(key.substr(2))) throw InputError("unknown flag " + key);
      if (i + 1 >= argc) throw InputError("missing value for " + key);
      args.values[key.substr(2)] = argv[++i];
    }
    return args;
  }

  [[nodiscard]] std::string get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) throw InputError("missing required --" + key);
    return it->second;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Fail before serving, not after the job, when --output cannot be
/// written: open it for appending, which creates it but never truncates.
void check_output_writable(const std::string& path) {
  if (path.empty() || path == "-") return;
  std::ofstream probe(path, std::ios::app);
  if (!probe) throw IoError("cannot write " + path);
}

void write_output(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream out(path);
  if (!out) throw IoError("cannot write " + path);
  out << text;
  std::printf("result written to %s\n", path.c_str());
}

int run(int argc, char** argv) {
  auto args = Args::parse(argc, argv);
  check_output_writable(args.get("output", "-"));
  std::string app = args.get("app");
  Config file_cfg = args.values.count("config")
                        ? Config::load(args.get("config"))
                        : Config();

  dist::ServerConfig scfg;
  scfg.port = static_cast<std::uint16_t>(parse_i64(args.get("port", "0")));
  scfg.policy_spec = file_cfg.get_str("policy", "adaptive:15");
  scfg.scheduler.lease_timeout = file_cfg.get_f64("lease_timeout", 600);
  // A donor connection silent this long is closed and its units requeued;
  // donors keep alive every quarter of it while they compute.
  scfg.client_timeout_s = file_cfg.get_f64("client_timeout", 120);
  scfg.scheduler.hedge_endgame = file_cfg.get_bool("hedge_endgame", true);
  scfg.scheduler.max_attempts_per_unit =
      static_cast<int>(file_cfg.get_i64("max_attempts_per_unit", 0));
  // Result certification: --replicas K leases every unit to K distinct
  // donors and accepts a payload only on --quorum agreeing digests
  // (default: majority). Trusted donors drop back to one copy, audited
  // with probability --spot-check. See docs/ROBUSTNESS.md.
  scfg.scheduler.replication_factor = static_cast<int>(parse_i64(args.get(
      "replicas", file_cfg.get_str("replication_factor", "1"))));
  scfg.scheduler.quorum = static_cast<int>(
      parse_i64(args.get("quorum", file_cfg.get_str("quorum", "0"))));
  scfg.scheduler.spot_check_rate = parse_f64(args.get(
      "spot-check", file_cfg.get_str("spot_check_rate", "0.05")));
  // Durability + failover (docs/ROBUSTNESS.md): --wal-dir logs every core
  // mutation (results fsynced before ack); --standby-of makes this process
  // a hot standby that mirrors the named primary and promotes when its
  // stream goes silent for --failover-timeout seconds.
  scfg.wal_dir = args.get("wal-dir", "");
  std::string standby_of = args.get("standby-of", "");
  if (!standby_of.empty()) {
    auto colon = standby_of.rfind(':');
    if (colon == std::string::npos) {
      throw InputError("--standby-of expects HOST:PORT, got: " + standby_of);
    }
    scfg.primary_host = standby_of.substr(0, colon);
    scfg.primary_port =
        static_cast<std::uint16_t>(parse_i64(standby_of.substr(colon + 1)));
  }
  scfg.failover_timeout_s = parse_f64(args.get("failover-timeout", "2"));
  // Storage-fault posture + overload control (docs/ROBUSTNESS.md).
  std::string durability = args.get("durability", "continue");
  if (durability == "fail-stop") {
    scfg.durability_mode = dist::DurabilityMode::kFailStop;
  } else if (durability != "continue") {
    throw InputError("--durability expects continue|fail-stop, got: " +
                     durability);
  }
  scfg.wal_dir_budget_bytes = static_cast<std::uint64_t>(
      parse_i64(args.get("wal-budget-mb", "0"))) * 1024 * 1024;
  scfg.max_clients = static_cast<int>(parse_i64(args.get("max-clients", "0")));
  scfg.blob_inflight_budget_bytes = static_cast<std::size_t>(
      parse_i64(args.get("blob-budget-mb", "0"))) * 1024 * 1024;
  // Event-loop I/O: --io-threads epoll loops + --workers scheduler/disk
  // workers are the whole thread budget no matter how many donors connect;
  // --max-write-buffer-mb bounds each connection's write queue before
  // backpressure pauses its reads (docs/PROTOCOL.md).
  scfg.io_threads = static_cast<int>(parse_i64(args.get("io-threads", "1")));
  scfg.worker_threads = static_cast<int>(parse_i64(args.get("workers", "4")));
  scfg.max_write_buffer_bytes = static_cast<std::size_t>(
      parse_i64(args.get("max-write-buffer-mb", "64"))) * 1024 * 1024;

  // --trace FILE appends the structured scheduling event log (JSONL);
  // summarise it afterwards with tools/trace_summary.
  obs::Tracer tracer;
  std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    tracer.open(trace_path);
    scfg.tracer = &tracer;
  }

  std::shared_ptr<dist::DataManager> dm;
  if (app == "dsearch") {
    dsearch::register_algorithm();
    auto db = bio::parse_fasta_auto(read_file(args.get("db")));
    auto queries = bio::parse_fasta_auto(read_file(args.get("queries")));
    dm = std::make_shared<dsearch::DSearchDataManager>(
        queries, db, dsearch::DSearchConfig::from_config(file_cfg));
  } else if (app == "dprml") {
    dprml::register_algorithm();
    auto aln = phylo::Alignment::from_fasta(read_file(args.get("alignment")));
    dm = std::make_shared<dprml::DPRmlDataManager>(
        aln, dprml::DPRmlConfig::from_config(file_cfg));
  } else if (app == "dboot") {
    dboot::register_algorithm();
    auto aln = phylo::Alignment::from_fasta(read_file(args.get("alignment")));
    dm = std::make_shared<dboot::DBootDataManager>(
        aln, dboot::DBootConfig::from_config(file_cfg));
  } else {
    throw InputError("unknown --app '" + app + "' (dsearch | dprml | dboot)");
  }

  // The problem is registered before start(): WAL recovery and a
  // standby's snapshot sync restore onto the same problems.
  dist::Server server(scfg);
  auto keep_dm = dm;  // results are read back through the concrete manager
  auto pid = server.submit_problem(dm);
  server.start();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("serving problem %llu on 127.0.0.1:%u%s — point donors here "
              "(hdcs_donor --host 127.0.0.1 --port %u)\n",
              static_cast<unsigned long long>(pid), server.port(),
              server.is_standby() ? " [standby]" : "",
              server.port());
  std::fflush(stdout);  // a log being tailed for the port sees it now

  // Poll so SIGINT/SIGTERM can interrupt the wait: on a signal, drain —
  // donors get a clean kShutdown instead of a dead socket.
  while (!server.wait_for_problem(pid, 0.2)) {
    if (server.storage_failed()) {
      // Fail-stop tripped: the server is already draining (donors keep
      // their buffered results). Stop and exit distinctly so supervisors
      // can tell "disk gone" from an ordinary crash.
      std::fprintf(stderr,
                   "storage failure (fail-stop): draining and exiting\n");
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      server.stop();
      return 3;
    }
    int sig = g_signal.load();
    if (sig != 0) {
      std::fprintf(stderr, "signal %d: draining\n", sig);
      server.drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      server.stop();
      return 128 + sig;
    }
  }
  auto stats = server.stats();
  std::printf("complete: %llu units (%llu reissued, %llu hedged)\n",
              static_cast<unsigned long long>(stats.units_issued),
              static_cast<unsigned long long>(stats.units_reissued),
              static_cast<unsigned long long>(stats.units_hedged));

  // Render the result for humans.
  std::ostringstream out;
  if (app == "dsearch") {
    auto result =
        std::static_pointer_cast<dsearch::DSearchDataManager>(keep_dm)->result();
    for (std::size_t q = 0; q < result.size(); ++q) {
      out << "query " << q << "\n";
      for (std::size_t rank = 0; rank < result[q].size(); ++rank) {
        out << "  " << (rank + 1) << "\t" << result[q][rank].db_id << "\t"
            << result[q][rank].score << "\n";
      }
    }
  } else if (app == "dprml") {
    auto result =
        std::static_pointer_cast<dprml::DPRmlDataManager>(keep_dm)->result();
    out << "logL\t" << format_f64(result.log_likelihood, 6) << "\n"
        << result.newick << "\n";
  } else {
    auto result =
        std::static_pointer_cast<dboot::DBootDataManager>(keep_dm)->result();
    out << result.reference_newick << "\n";
    for (const auto& [split, count] : result.support) {
      out << format_f64(result.support_percent(split), 1) << "%\t{";
      bool first = true;
      for (const auto& name : split) {
        if (!first) out << ",";
        out << name;
        first = false;
      }
      out << "}\n";
    }
  }
  write_output(args.get("output", "-"), out.str());
  // Let the donors leave first: a donor's next RequestWork is answered
  // kShutdown, a held ack is still delivered once durable, and each donor
  // then says Goodbye and hangs up.
  server.drain();
  for (double waited = 0; server.connected_clients() > 0 &&
                          waited < kDrainGraceS;
       waited += 0.02) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
