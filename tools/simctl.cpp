// simctl — command-line driver for the block DAG runtimes.
//
// Default (or `simctl run …`): runs one scenario (DESIGN.md §6) under a
// hand-written plan — every instance requested at t = 0, no churn, no
// partitions — with the paper's checkers on, and prints one report on
// every runtime: the checked result, wire traffic, interpreter counters,
// the backend's own counters (signatures, verifier pool, sockets, kBatch
// packing, the UDP per-link table) and the witness's DAG audit. Exit 0 when
// every check passes; 1 on a checker violation, non-convergence (Lemma
// 3.7) or a digest divergence (Lemma 4.2); 2 on a usage or bind failure.
//
//   simctl [run] [--runtime sim|threads|tcp|udp] [--n N]
//          [--protocol brb|bcb|fifo|pbft|beacon] [--seconds S]
//          [--instances K] [--interval MS] [--seed X] [--drop P]
//          [--byzantine ID:KIND ...] [--sig ideal|hmac|wots] [--dot FILE]
//
// Byzantine kinds: silent, equivocator, duplicate, flooder, badsigner,
// garbage, forger.
//
// --runtime threads runs the same protocol stack on the multi-threaded
// in-process runtime (one OS thread per server, real clock) instead of the
// deterministic simulator; --seconds is the run's length on every runtime
// (virtual time on the simulator, wall-clock otherwise), and the checks
// follow it. --runtime tcp moves every payload over real localhost TCP
// sockets (ephemeral ports), --runtime udp over real UDP datagrams with
// userspace reliability (net/datagram.h) and an in-path fault injector.
// --drop P is loss on every link: the simulator's drop rate (at most 16
// drops per pair) or, on udp, injected at the wire (DESIGN.md §9); other
// runtimes refuse it. --byzantine is simulator-only. --sig selects the
// signature scheme on every runtime (real runtimes verify non-ideal
// schemes on the off-thread verifier pool).
//
// Multi-process clusters (DESIGN.md §8): every member runs the same plan
// in its own OS process, hosting exactly one server, connected over
// 127.0.0.1:(PORT + id):
//
//   simctl serve --n N --port PORT [--runtime tcp|udp] [--loss P]
//                [--protocol P] [--instances K] [--seconds S]
//                [--interval MS] [--seed X] [--sig ideal|hmac|wots]
//                [--data-dir DIR] [--checkpoint K]
//   simctl join --id I --n N --port PORT [same options]
//
// `serve` hosts server 0, `join --id I` hosts server I (started in any
// order — connects retry until peers appear). A member runs `run`'s
// scenario engine and prints its report: it requests its server's share of
// the plan, checks its own indication log with the same checkers, and
// converges by a digest exchange on the wire itself — it passes once every
// member reports the identical DAG digest and per-block interpretation
// digest (Lemma 3.7 / Lemma 4.2) with every instance delivered. --seconds
// is a budget here: the run ends as soon as that holds. --loss P drops P of
// the member's outbound datagrams (udp only).
//
// With --data-dir the member persists epoch checkpoints plus an
// append-only block log under DIR (checkpoint every K interpreted blocks,
// default 32), restores from them on startup and state-syncs the history
// it missed while down — a SIGKILLed member restarted on the same
// directory rejoins without re-interpreting checkpointed history
// (tools/crash_cluster_smoke.sh drives exactly that) and without
// requesting again what it delivered before. All members of one cluster must
// agree on whether --data-dir is in use: checkpoint epochs prune the DAG,
// and the digest exchange then compares GC'd live sets. Exit codes are
// `run`'s, plus 3 on corrupt durable state (the member refuses to run
// half-restored).
//
// Scenario engine (DESIGN.md §6) subcommands:
//
//   simctl fuzz --seeds A..B [--runtime sim|udp|threads|tcp]
//               [--protocol P|mix] [--n N]
//               [--instances K] [--duration S | --duration-ns NS]
//               [--sig ideal|hmac|wots] [--repro-file FILE]
//     Runs one seeded adversarial scenario per seed (randomized partitions,
//     latency/drop regimes, crash/recovery churn, byzantine mixes, request
//     bursts) with the property checkers always on. Every failure prints a
//     one-line `simctl replay …` repro (also appended to --repro-file).
//     With `--protocol mix` (default), protocol and cluster size rotate
//     deterministically per seed. `--runtime udp` ports the grammar to real
//     sockets: each seed derives a loss/reorder/duplication/geo-latency
//     profile, asymmetric hostile links and an optional mid-run partition,
//     injected live by the UDP transport's fault injector.
//
//     `--runtime threads` (or tcp) runs seeded crash-churn instead: durable
//     storage and checkpoint epochs on, servers SIGKILL-crashed mid-run and
//     restarted over their surviving storage (never wiped: DESIGN.md §10).
//     Every runtime runs the same driver and checks (runtime/scenario.h):
//     the protocol checkers mid-run and at the end, the Lemma 4.2 digest
//     check and the backend's sanity checks. --sig hmac|wots arms the
//     forger adversary; real-runtime slices need --n 3 or more (or the
//     default rotation).
//
//   simctl replay --seed S [--runtime sim|udp|threads|tcp] [--protocol P]
//                 [--n N] [--instances K] [--duration S | --duration-ns NS]
//                 [--sig ideal|hmac|wots] [--trace FILE]
//     Re-runs exactly one scenario (same derivation as fuzz), prints the
//     derived fault plan and the result, and optionally writes a JSON
//     trace. Simulator replays are exact: a scenario is a pure function of
//     its configuration (repro lines carry the duration in integer ns so
//     no decimal round-trip can perturb the derived plan). Real-runtime
//     replays re-derive the exact same plan from the seed; the thread and
//     socket timing underneath is real and therefore not bit-identical.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "runtime/scenario.h"
#include "runtime/table.h"

using namespace blockdag;

namespace {

// `simctl run`, `serve` and `join`: one scenario under a hand-written plan.
enum class Command { kRun, kServe, kJoin };

struct Options {
  ScenarioConfig config;
  FaultPlan plan;
  double drop = 0.0;  // run: --drop; a member: --loss
  std::string dot_file;
  std::optional<ClusterMember> member;  // serve, join
};

std::optional<ByzantineKind> parse_kind(const std::string& name) {
  if (name == "silent") return ByzantineKind::kSilent;
  if (name == "equivocator") return ByzantineKind::kEquivocator;
  if (name == "duplicate") return ByzantineKind::kDuplicateReferencer;
  if (name == "flooder") return ByzantineKind::kFlooder;
  if (name == "badsigner") return ByzantineKind::kBadSigner;
  if (name == "garbage") return ByzantineKind::kGarbageSpammer;
  if (name == "forger") return ByzantineKind::kForger;
  return std::nullopt;
}

// Shared argv parsers (every subcommand).
bool parse_u64(const std::string& s, std::uint64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoull(s, &used);
    return used == s.size() && !s.empty();
  } catch (...) {
    return false;
  }
}

bool parse_u32(const char* s, std::uint32_t& out) {
  try {
    std::size_t used = 0;
    const unsigned long v = std::stoul(s, &used);
    if (used != std::strlen(s) || v > UINT32_MAX) return false;
    out = static_cast<std::uint32_t>(v);
    return true;
  } catch (...) {
    return false;
  }
}

bool parse_duration(const char* s, double& out) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != std::strlen(s) || !(v > 0.0) || v > 1e6) return false;
    out = v;
    return true;
  } catch (...) {
    return false;
  }
}

// A probability in [0, 1).
bool parse_fraction(const char* s, double& out) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != std::strlen(s) || !(v >= 0.0 && v < 1.0)) return false;
    out = v;
    return true;
  } catch (...) {
    return false;
  }
}

// Turns the flags of `run`, `serve` or `join` into a config and its plan:
// one burst of every instance at t = 0, no churn, no partitions. A member
// also gets its deployment: its server, the cluster's base port and its
// data dir.
bool parse_args(int argc, char** argv, Command command, Options& opt) {
  const bool member = command != Command::kRun;
  ScenarioConfig& cfg = opt.config;
  FaultPlan& plan = opt.plan;
  cfg.seed = 1;
  cfg.instances = member ? 4 : 8;
  if (member) {
    cfg.n_servers = 2;
    cfg.runtime = ScenarioRuntime::kTcp;
  }
  double seconds = member ? 30.0 : 2.0;
  std::uint64_t interval_ms = member ? 5 : 10;
  std::uint64_t checkpoint = 32;
  std::uint32_t id = 0;
  std::uint32_t port = 0;
  std::string data_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (!v) return false;
    if (arg == "--runtime") {
      const auto runtime = parse_scenario_runtime(v);
      if (!runtime) return false;
      cfg.runtime = *runtime;
    } else if (arg == "--n") {
      if (!parse_u32(v, cfg.n_servers) || cfg.n_servers < (member ? 2u : 1u)) {
        return false;
      }
    } else if (arg == "--protocol") {
      cfg.protocol = v;
      if (!factory_for(cfg.protocol)) return false;
    } else if (arg == "--seconds") {
      if (!parse_duration(v, seconds)) return false;
    } else if (arg == "--instances") {
      if (!parse_u32(v, cfg.instances)) return false;
    } else if (arg == "--interval") {
      // At most --seconds' 1e6 s, so that sim_ms() cannot wrap.
      if (!parse_u64(v, interval_ms) || interval_ms == 0 ||
          interval_ms > 1'000'000'000) {
        return false;
      }
    } else if (arg == "--seed") {
      if (!parse_u64(v, cfg.seed)) return false;
    } else if (arg == (member ? "--loss" : "--drop")) {
      if (!parse_fraction(v, opt.drop)) return false;
    } else if (arg == "--sig") {
      const auto scheme = parse_sig_scheme(v);
      if (!scheme) return false;
      cfg.sig_scheme = *scheme;
    } else if (arg == "--dot" && !member) {
      opt.dot_file = v;
    } else if (arg == "--byzantine" && !member) {
      const std::string spec = v;
      const auto colon = spec.find(':');
      std::uint32_t byz = 0;
      if (colon == std::string::npos ||
          !parse_u32(spec.substr(0, colon).c_str(), byz)) {
        return false;
      }
      const auto kind = parse_kind(spec.substr(colon + 1));
      if (!kind) return false;
      plan.byzantine[byz] = *kind;
    } else if (arg == "--id" && command == Command::kJoin) {
      if (!parse_u32(v, id) || id == 0) return false;
    } else if (arg == "--port" && member) {
      if (!parse_u32(v, port) || port == 0 || port > 65535) return false;
    } else if (arg == "--data-dir" && member) {
      data_dir = v;
      if (data_dir.empty()) return false;
    } else if (arg == "--checkpoint" && member) {
      if (!parse_u64(v, checkpoint) || checkpoint == 0) return false;
    } else {
      return false;
    }
    ++i;
  }
  cfg.duration = static_cast<SimTime>(seconds * 1e9);
  plan.runtime = cfg.runtime;
  plan.sig_scheme = cfg.sig_scheme;
  plan.duration = cfg.duration;
  plan.pacing.interval = sim_ms(interval_ms);
  plan.bursts = {{0, 0, cfg.instances}};
  if (cfg.runtime == ScenarioRuntime::kSim) {
    plan.initial_net.drop_probability = opt.drop;
    plan.initial_net.max_drops_per_pair = 16;
  } else if (cfg.runtime == ScenarioRuntime::kUdp) {
    plan.wire.drop = opt.drop;
  }
  if (member) {
    // A member runs over sockets, join names its server, and the whole
    // cluster's ports (base .. base + n − 1) fit in 16 bits.
    if ((cfg.runtime != ScenarioRuntime::kTcp && cfg.runtime != ScenarioRuntime::kUdp) ||
        port == 0 || (command == Command::kJoin && id == 0) || id >= cfg.n_servers ||
        std::uint64_t{port} + cfg.n_servers - 1 > 65535) {
      return false;
    }
    opt.member = ClusterMember{id, static_cast<std::uint16_t>(port), data_dir};
    if (!data_dir.empty()) plan.epoch_blocks = checkpoint;
  }
  // Byzantine ids name servers of this cluster, and one server stays honest.
  return plan.byzantine.empty() ||
         (plan.byzantine.rbegin()->first < cfg.n_servers &&
          plan.byzantine.size() < cfg.n_servers);
}

// The report of every runtime: the checked result, then what the run
// left behind (ScenarioReport).
void print_report(const Options& opt, const ScenarioResult& result,
                  const ScenarioReport& report) {
  const ScenarioConfig& cfg = opt.config;
  std::printf("simctl report — runtime=%s protocol=%s n=%u instances=%u "
              "seed=%llu sig=%s",
              scenario_runtime_name(cfg.runtime), cfg.protocol.c_str(),
              cfg.n_servers, cfg.instances,
              static_cast<unsigned long long>(cfg.seed),
              sig_scheme_name(cfg.sig_scheme));
  if (opt.member) {
    std::printf(" server=%u ports=127.0.0.1:%u..%u", opt.member->id,
                opt.member->base_port, opt.member->base_port + cfg.n_servers - 1);
  }
  std::printf("\n\ninstances complete everywhere : %zu / %u\n",
              result.labels_complete, cfg.instances);
  std::printf("deliveries                     : %zu (%zu by half time)\n",
              result.deliveries, result.mid_run_deliveries);
  std::printf("converged (joint DAG + interp) : %s\n",
              result.converged ? "yes" : "no");
  const InterpreterStats& is = report.interpretation;
  std::printf("interpretation at the witness  : %llu blocks, %llu delivered, "
              "%llu materialized, %llu indications, %llu clones\n",
              static_cast<unsigned long long>(is.blocks_interpreted),
              static_cast<unsigned long long>(is.messages_delivered),
              static_cast<unsigned long long>(is.messages_materialized),
              static_cast<unsigned long long>(is.indications),
              static_cast<unsigned long long>(is.instance_clones));

  Table traffic({"wire class", "messages", "bytes"});
  for (std::size_t k = 0; k < static_cast<std::size_t>(WireKind::kCount); ++k) {
    if (report.wire.messages[k] == 0) continue;
    traffic.add_row({wire_kind_name(static_cast<WireKind>(k)),
                     Table::num(report.wire.messages[k]),
                     Table::num(report.wire.bytes[k])});
  }
  traffic.add_row({"dropped", Table::num(report.wire.dropped), ""});
  std::printf("\n%s", traffic.render().c_str());
  Table counters({"counter", "value"});
  for (const auto& [name, value] : report.counters) {
    counters.add_row({name, Table::num(value)});
  }
  std::printf("\n%s", counters.render().c_str());
  for (const Table& table : report.tables) {
    std::printf("\n%s", table.render().c_str());
  }
  std::printf("\n%s", report.audit.c_str());
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());

  for (const std::string& violation : result.violations) {
    std::printf("VIOLATION: %s\n", violation.c_str());
  }
  if (result.ok()) {
    std::printf("OK — checkers, joint DAG (Lemma 3.7) and digests (Lemma 4.2) "
                "all pass\n");
  }
}

int run(const Options& opt) {
  const ScenarioConfig& cfg = opt.config;
  const bool sim = cfg.runtime == ScenarioRuntime::kSim;
  if (!sim && !opt.plan.byzantine.empty()) {
    std::fprintf(stderr,
                 "--runtime %s does not support --byzantine (the forger "
                 "slice of `simctl fuzz --runtime threads --sig wots` hosts "
                 "adversaries on the real runtimes)\n",
                 scenario_runtime_name(cfg.runtime));
    return 2;
  }
  if (opt.drop != 0.0 && !sim && cfg.runtime != ScenarioRuntime::kUdp) {
    std::fprintf(stderr, "%s needs a lossy wire: use --runtime udp%s\n",
                 opt.member ? "--loss" : "--drop",
                 opt.member ? "" : " or --runtime sim");
    return 2;
  }
  ScenarioReport report;
  const ScenarioResult result =
      run_scenario(cfg, opt.plan, &report, opt.member ? &*opt.member : nullptr);
  if (result.violations.size() == 1 && result.violations.front() == kBindFailure) {
    std::fprintf(stderr, "failed to bind %s sockets%s\n",
                 scenario_runtime_name(cfg.runtime),
                 opt.member ? " (port in use, or the port range exceeds 65535?)" : "");
    return 2;
  }
  if (result.violations.size() == 1 && result.violations.front() == kRestoreFailure) {
    // Distinct from a violation (1) and a bind failure (2): the durable
    // state exists but will not restore, and running on would risk
    // equivocation (a lost own block means a reused sequence number).
    std::fprintf(stderr,
                 "cannot open or restore --data-dir %s: refusing to run "
                 "half-restored (wipe the directory to rejoin fresh)\n",
                 opt.member->data_dir.c_str());
    return 3;
  }
  print_report(opt, result, report);
  if (!opt.dot_file.empty()) {
    std::ofstream(opt.dot_file) << report.dot;
    std::printf("\nDOT written to %s\n", opt.dot_file.c_str());
  }
  return result.ok() ? 0 : 1;
}

// ---- scenario engine subcommands ----

struct FuzzOptions {
  std::uint64_t first_seed = 0;
  std::uint64_t last_seed = 0;
  // The sweep's fixed fields; protocol "mix" and n_servers 0 rotate per
  // seed (scenario_for_seed).
  ScenarioConfig pinned;
  std::string repro_file;
  std::string trace_file;  // replay only
};

bool parse_seed_range(const std::string& spec, FuzzOptions& opt) {
  const auto dots = spec.find("..");
  if (dots == std::string::npos) {
    if (!parse_u64(spec, opt.first_seed)) return false;
    opt.last_seed = opt.first_seed;
  } else {
    if (!parse_u64(spec.substr(0, dots), opt.first_seed) ||
        !parse_u64(spec.substr(dots + 2), opt.last_seed)) {
      return false;
    }
  }
  return opt.first_seed <= opt.last_seed;
}

bool parse_fuzz_args(int argc, char** argv, FuzzOptions& opt, bool replay) {
  bool seen_seed = false;
  double duration_s = 1.0;       // --duration (human-friendly seconds)
  std::uint64_t duration_ns = 0; // --duration-ns (exact; overrides seconds)
  opt.pinned.protocol = "mix";
  opt.pinned.n_servers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--seeds" && !replay) {
      if (!(v = next()) || !parse_seed_range(v, opt)) return false;
      seen_seed = true;
    } else if (arg == "--seed" && replay) {
      if (!(v = next()) || !parse_seed_range(v, opt)) return false;
      seen_seed = true;
    } else if (arg == "--runtime") {
      if (!(v = next())) return false;
      const auto runtime = parse_scenario_runtime(v);
      if (!runtime) return false;
      opt.pinned.runtime = *runtime;
    } else if (arg == "--protocol") {
      if (!(v = next())) return false;
      opt.pinned.protocol = v;
      if (opt.pinned.protocol != "mix" && !factory_for(opt.pinned.protocol)) {
        return false;
      }
    } else if (arg == "--n") {
      if (!(v = next()) || !parse_u32(v, opt.pinned.n_servers)) return false;
    } else if (arg == "--instances") {
      if (!(v = next()) || !parse_u32(v, opt.pinned.instances)) return false;
    } else if (arg == "--duration") {
      if (!(v = next()) || !parse_duration(v, duration_s)) return false;
    } else if (arg == "--duration-ns") {
      if (!(v = next()) || !parse_u64(v, duration_ns) || duration_ns == 0) {
        return false;
      }
    } else if (arg == "--sig") {
      if (!(v = next())) return false;
      const auto scheme = parse_sig_scheme(v);
      if (!scheme) return false;
      opt.pinned.sig_scheme = *scheme;
    } else if (arg == "--repro-file" && !replay) {
      if (!(v = next())) return false;
      opt.repro_file = v;
    } else if (arg == "--trace" && replay) {
      if (!(v = next())) return false;
      opt.trace_file = v;
    } else {
      return false;
    }
  }
  if (!seen_seed) return false;
  opt.pinned.duration = duration_ns != 0 ? duration_ns
                                         : static_cast<SimTime>(duration_s * 1e9);
  // Rotated fields always pass (protocols are known, live sizes >= 3), so
  // the first seed's config speaks for the whole sweep.
  const std::string error =
      scenario_config_error(scenario_for_seed(opt.first_seed, opt.pinned));
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  return true;
}

int cmd_fuzz(int argc, char** argv) {
  FuzzOptions opt;
  if (!parse_fuzz_args(argc, argv, opt, /*replay=*/false)) {
    std::fprintf(stderr,
                 "usage: simctl fuzz --seeds A..B [--runtime sim|udp|threads|tcp]\n"
                 "                   [--protocol brb|bcb|fifo|pbft|beacon|mix]\n"
                 "                   [--n N] [--instances K] [--duration S |"
                 " --duration-ns NS]\n"
                 "                   [--sig ideal|hmac|wots] [--repro-file FILE]\n"
                 "(--sig hmac|wots also arms the forger adversary: sim adds\n"
                 " kForger to the byzantine pool; threads/tcp host a raw forger\n"
                 " flooding invalidly-signed blocks at the cluster)\n");
    return 2;
  }
  std::size_t passed = 0, failed = 0;
  for (std::uint64_t seed = opt.first_seed; seed <= opt.last_seed; ++seed) {
    const ScenarioConfig cfg = scenario_for_seed(seed, opt.pinned);
    const ScenarioResult result = run_scenario(cfg);
    if (result.ok()) {
      ++passed;
      continue;
    }
    ++failed;
    const std::string repro = repro_line(cfg);
    std::printf("FAIL seed=%llu protocol=%s n=%u: %s\n",
                static_cast<unsigned long long>(seed), cfg.protocol.c_str(),
                cfg.n_servers, result.violations.front().c_str());
    std::printf("  repro: %s\n", repro.c_str());
    if (!opt.repro_file.empty()) {
      std::ofstream out(opt.repro_file, std::ios::app);
      out << repro << "\n";
    }
  }
  std::printf("fuzz: %zu/%zu seeds passed (%llu..%llu)\n", passed,
              passed + failed, static_cast<unsigned long long>(opt.first_seed),
              static_cast<unsigned long long>(opt.last_seed));
  return failed == 0 ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  FuzzOptions opt;
  if (!parse_fuzz_args(argc, argv, opt, /*replay=*/true)) {
    std::fprintf(stderr,
                 "usage: simctl replay --seed S [--runtime sim|udp|threads|tcp]\n"
                 "                     [--protocol brb|bcb|fifo|pbft|"
                 "beacon|mix]\n"
                 "                     [--n N] [--instances K] [--duration S |"
                 " --duration-ns NS]\n"
                 "                     [--sig ideal|hmac|wots] [--trace FILE]\n");
    return 2;
  }
  const ScenarioConfig cfg = scenario_for_seed(opt.first_seed, opt.pinned);
  const bool sim = cfg.runtime == ScenarioRuntime::kSim;
  const std::string runtime =
      sim ? "" : std::string(" runtime=") + scenario_runtime_name(cfg.runtime);
  std::printf("scenario seed=%llu%s protocol=%s n=%u instances=%u "
              "duration=%.3fs\n",
              static_cast<unsigned long long>(cfg.seed), runtime.c_str(),
              cfg.protocol.c_str(), cfg.n_servers, cfg.instances,
              static_cast<double>(effective_duration(cfg)) / 1e9);
  const FaultPlan plan = derive_fault_plan(cfg);
  std::printf("%s%s", sim ? "---- fault plan ----\n" : "", plan.summary().c_str());

  const ScenarioResult result = run_scenario(cfg);
  std::printf("---- result ----\n");
  std::printf("blocks=%zu deliveries=%zu labels_complete=%zu converged=%s\n",
              result.blocks, result.deliveries, result.labels_complete,
              result.converged ? "yes" : "no");
  for (const std::string& violation : result.violations) {
    std::printf("VIOLATION: %s\n", violation.c_str());
  }
  if (result.ok()) std::printf("OK — no violations\n");
  if (!opt.trace_file.empty()) {
    std::ofstream out(opt.trace_file);
    out << scenario_trace_json(cfg, plan, result);
    std::printf("trace written to %s\n", opt.trace_file.c_str());
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* sub = argc > 1 ? argv[1] : "";
  if (std::strcmp(sub, "fuzz") == 0) return cmd_fuzz(argc - 1, argv + 1);
  if (std::strcmp(sub, "replay") == 0) return cmd_replay(argc - 1, argv + 1);
  const Command command = std::strcmp(sub, "serve") == 0  ? Command::kServe
                          : std::strcmp(sub, "join") == 0 ? Command::kJoin
                                                          : Command::kRun;
  const bool named = command != Command::kRun || std::strcmp(sub, "run") == 0;
  Options opt;
  if (!parse_args(named ? argc - 1 : argc, named ? argv + 1 : argv, command, opt)) {
    std::fprintf(stderr,
                 "usage: simctl [run] [--runtime sim|threads|tcp|udp] [--n N]\n"
                 "              [--protocol brb|bcb|fifo|pbft|beacon]\n"
                 "              [--seconds S] [--instances K] [--interval MS]\n"
                 "              [--seed X] [--drop P] [--byzantine ID:KIND ...]\n"
                 "              [--sig ideal|hmac|wots] [--dot FILE]\n"
                 "       simctl serve --n N --port PORT [--runtime tcp|udp] [--loss P]\n"
                 "                    [--protocol P] [--instances K] [--seconds S]\n"
                 "                    [--interval MS] [--seed X] [--sig ideal|hmac|wots]\n"
                 "                    [--data-dir DIR] [--checkpoint K]\n"
                 "       simctl join --id I --n N --port PORT [same options as serve]\n"
                 "       simctl fuzz --seeds A..B [options]\n"
                 "       simctl replay --seed S [options]\n"
                 "(--data-dir: persist checkpoints + block log, restore on restart;\n"
                 " exit 3 on corrupt state. All members must agree on whether\n"
                 " --data-dir is used.)\n");
    return 2;
  }
  return run(opt);
}
