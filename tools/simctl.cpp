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
// Multi-process clusters (DESIGN.md §8): every member runs the same
// protocol stack in its own OS process, hosting exactly one server,
// connected over 127.0.0.1:(PORT + id):
//
//   simctl serve --n N --port PORT [--runtime tcp|udp] [--loss P]
//                [--protocol P] [--instances K] [--seconds S]
//                [--interval MS] [--seed X]
//                [--data-dir DIR] [--checkpoint K]
//   simctl join --id I --n N --port PORT [same options]
//
// With --data-dir the member persists epoch checkpoints plus an
// append-only block log under DIR (checkpoint every K interpreted blocks,
// default 32), restores from them on startup and state-syncs the history
// it missed while down — a SIGKILLed member restarted on the same
// directory rejoins without re-interpreting checkpointed history
// (tools/crash_cluster_smoke.sh drives exactly that). Exit codes: 0 =
// converged, 1 = settle timeout, 2 = bind/usage failure, 3 = corrupt
// durable state (the member refuses to run half-restored). All members of
// one cluster must agree on whether --data-dir is in use: checkpoint
// epochs prune the DAG, and the settle protocol then compares GC'd live
// sets.
//
// `serve` hosts server 0, `join --id I` hosts server I (one process per
// server, started in any order — connects retry until peers appear). Each
// process issues its share of the workload, then the members settle via a
// digest-exchange control protocol on the wire itself: a member exits 0
// once every server reports the identical DAG digest and identical
// per-block interpretation digest (Lemma 3.7 / Lemma 4.2) and all
// instances are delivered; nonzero on timeout or bind failure (exit 2).
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
#include <mutex>
#include <numeric>
#include <string>
#include <tuple>

#include <chrono>
#include <thread>

#include "rt/threaded_runtime.h"
#include "runtime/scenario.h"
#include "runtime/table.h"
#include "util/hex.h"
#include "util/serialize.h"

using namespace blockdag;

namespace {

// `simctl run`: one scenario under a hand-written plan.
struct Options {
  ScenarioConfig config;
  FaultPlan plan;
  double drop = 0.0;
  std::string dot_file;
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

// Turns `run`'s flags into a config and its plan: one burst of every
// instance at t = 0, no churn, no partitions.
bool parse_args(int argc, char** argv, Options& opt) {
  ScenarioConfig& cfg = opt.config;
  FaultPlan& plan = opt.plan;
  cfg.seed = 1;
  cfg.instances = 8;
  double seconds = 2.0;
  std::uint64_t interval_ms = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (!v) return false;
    if (arg == "--runtime") {
      const auto runtime = parse_scenario_runtime(v);
      if (!runtime) return false;
      cfg.runtime = *runtime;
    } else if (arg == "--n") {
      if (!parse_u32(v, cfg.n_servers) || cfg.n_servers == 0) return false;
    } else if (arg == "--protocol") {
      cfg.protocol = v;
      if (!factory_for(cfg.protocol)) return false;
    } else if (arg == "--seconds") {
      if (!parse_duration(v, seconds)) return false;
    } else if (arg == "--instances") {
      if (!parse_u32(v, cfg.instances)) return false;
    } else if (arg == "--interval") {
      if (!parse_u64(v, interval_ms) || interval_ms == 0) return false;
    } else if (arg == "--seed") {
      if (!parse_u64(v, cfg.seed)) return false;
    } else if (arg == "--drop") {
      if (!parse_fraction(v, opt.drop)) return false;
    } else if (arg == "--sig") {
      const auto scheme = parse_sig_scheme(v);
      if (!scheme) return false;
      cfg.sig_scheme = *scheme;
    } else if (arg == "--dot") {
      opt.dot_file = v;
    } else if (arg == "--byzantine") {
      const std::string spec = v;
      const auto colon = spec.find(':');
      std::uint32_t id = 0;
      if (colon == std::string::npos ||
          !parse_u32(spec.substr(0, colon).c_str(), id)) {
        return false;
      }
      const auto kind = parse_kind(spec.substr(colon + 1));
      if (!kind) return false;
      plan.byzantine[id] = *kind;
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
  // Byzantine ids name servers of this cluster, and one server stays honest.
  return plan.byzantine.empty() ||
         (plan.byzantine.rbegin()->first < cfg.n_servers &&
          plan.byzantine.size() < cfg.n_servers);
}

// The report of every runtime: the checked result, then what the run
// left behind (ScenarioReport).
void print_report(const ScenarioConfig& cfg, const ScenarioResult& result,
                  const ScenarioReport& report) {
  std::printf("simctl report — runtime=%s protocol=%s n=%u instances=%u "
              "seed=%llu sig=%s\n\n",
              scenario_runtime_name(cfg.runtime), cfg.protocol.c_str(),
              cfg.n_servers, cfg.instances,
              static_cast<unsigned long long>(cfg.seed),
              sig_scheme_name(cfg.sig_scheme));
  std::printf("instances complete everywhere : %zu / %u\n",
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
    std::fprintf(stderr, "--drop needs a lossy wire: use --runtime sim or "
                         "--runtime udp\n");
    return 2;
  }
  ScenarioReport report;
  const ScenarioResult result = run_scenario(cfg, opt.plan, &report);
  if (result.violations.size() == 1 && result.violations.front() == kBindFailure) {
    std::fprintf(stderr, "failed to bind %s sockets\n",
                 scenario_runtime_name(cfg.runtime));
    return 2;
  }
  print_report(cfg, result, report);
  if (!opt.dot_file.empty()) {
    std::ofstream(opt.dot_file) << report.dot;
    std::printf("\nDOT written to %s\n", opt.dot_file.c_str());
  }
  return result.ok() ? 0 : 1;
}

// ---- multi-process cluster (serve / join) ----

struct MemberOptions {
  ServerId id = 0;  // serve: 0; join: --id
  std::uint32_t n = 2;
  std::string runtime = "tcp";  // tcp | udp
  std::string protocol = "brb";
  std::uint32_t instances = 4;
  std::uint64_t interval_ms = 5;
  std::uint64_t seed = 1;
  double seconds = 30.0;  // wall-clock budget for the whole run
  std::uint16_t port = 0; // base port: server s listens on 127.0.0.1:(port+s)
  double loss = 0.0;      // udp only: injected drop rate on outbound links
  // Signature scheme — every member of a cluster must agree on it (blocks
  // signed under one scheme do not verify under another).
  SigScheme sig = SigScheme::kIdeal;
  // Durable crash recovery (DESIGN.md §10): when set, this member persists
  // checkpoints + a block log under the directory, restores from it on
  // startup (exit 3 if the durable state is corrupt) and mounts a
  // state-sync engine to catch up on history it missed while down. All
  // members of a cluster must agree on whether checkpoints are on — epoch
  // GC changes the live set the digest settle compares.
  std::string data_dir;
  std::uint64_t checkpoint_blocks = 32;  // epoch cadence (with --data-dir)
};

bool parse_member_args(int argc, char** argv, MemberOptions& opt, bool join) {
  bool seen_port = false;
  bool seen_id = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint32_t u = 0;
    if (arg == "--id" && join) {
      if (!v || !parse_u32(v, u) || u == 0) return false;
      opt.id = u;
      seen_id = true;
    } else if (arg == "--n") {
      if (!v || !parse_u32(v, u) || u < 2) return false;
      opt.n = u;
    } else if (arg == "--port") {
      if (!v || !parse_u32(v, u) || u == 0 || u > 65535) return false;
      opt.port = static_cast<std::uint16_t>(u);
      seen_port = true;
    } else if (arg == "--protocol") {
      if (!v) return false;
      opt.protocol = v;
      if (!factory_for(opt.protocol)) return false;
    } else if (arg == "--instances") {
      if (!v || !parse_u32(v, u)) return false;
      opt.instances = u;
    } else if (arg == "--interval") {
      if (!v || !parse_u32(v, u) || u == 0) return false;
      opt.interval_ms = u;
    } else if (arg == "--seed") {
      std::uint64_t s = 0;
      if (!v || !parse_u64(v, s)) return false;
      opt.seed = s;
    } else if (arg == "--seconds") {
      double s = 0;
      if (!v || !parse_duration(v, s)) return false;
      opt.seconds = s;
    } else if (arg == "--runtime") {
      if (!v) return false;
      opt.runtime = v;
      if (opt.runtime != "tcp" && opt.runtime != "udp") return false;
    } else if (arg == "--loss") {
      if (!v || !parse_fraction(v, opt.loss)) return false;
    } else if (arg == "--sig") {
      if (!v) return false;
      const auto scheme = parse_sig_scheme(v);
      if (!scheme) return false;
      opt.sig = *scheme;
    } else if (arg == "--data-dir") {
      if (!v || *v == '\0') return false;
      opt.data_dir = v;
    } else if (arg == "--checkpoint") {
      std::uint64_t k = 0;
      if (!v || !parse_u64(v, k) || k == 0) return false;
      opt.checkpoint_blocks = k;
    } else {
      return false;
    }
    ++i;
  }
  if (opt.loss != 0.0 && opt.runtime != "udp") return false;
  // The whole cluster's ports (base .. base + n − 1) must fit in 16 bits.
  return seen_port && (!join || seen_id) && opt.id < opt.n &&
         static_cast<std::uint32_t>(opt.port) + opt.n - 1 <= 65535;
}

// The digest beat every member broadcasts on the control plane
// (WireKind::kControl — routed by the TCP transport, invisible to gossip).
Bytes encode_digest_beat(const Bytes& dag, const Bytes& interp, bool done) {
  Writer w;
  w.u8(1);  // control-protocol version
  w.bytes(dag);
  w.bytes(interp);
  w.u8(done ? 1 : 0);
  return std::move(w).take();
}

// One member of a multi-OS-process cluster: hosts exactly one server on
// a real-socket transport (TCP by default, lossy UDP with --runtime udp),
// issues its share of the workload, then settles via digest exchange. The
// acceptance criterion of DESIGN.md §8: exit 0 iff every server in the
// cluster reports the identical DAG digest and the identical per-block
// interpretation digest (Lemma 3.7 / Lemma 4.2) and every instance was
// delivered locally. Over UDP with --loss the digest beats themselves ride
// the retransmitting channels, so agreement doubles as a liveness check of
// the reliability layer across process boundaries.
int run_member(const MemberOptions& opt, const char* role) {
  const ProtocolFactory* factory = factory_for(opt.protocol);
  if (!factory) return 2;

  rt::ThreadedConfig cfg;
  cfg.n_servers = opt.n;
  cfg.seed = opt.seed;
  cfg.sig_scheme = opt.sig;
  cfg.pacing.interval = sim_ms(opt.interval_ms);
  cfg.gossip.fwd_retry_delay = sim_ms(20);
  if (opt.runtime == "udp") {
    cfg.backend = rt::TransportBackend::kUdp;
    cfg.udp.base_port = opt.port;
    cfg.udp.local_servers = {opt.id};
    cfg.udp.fault_seed = opt.seed + opt.id;  // distinct decision streams
    cfg.udp.default_fault.drop = opt.loss;   // applied to outbound datagrams
    cfg.udp.channel.initial_rto_ns = 5'000'000;
    cfg.udp.channel.max_rto_ns = 80'000'000;
  } else {
    cfg.backend = rt::TransportBackend::kTcp;
    cfg.tcp.base_port = opt.port;
    cfg.tcp.local_servers = {opt.id};
  }

  // Durable recovery: a --data-dir member checkpoints every K interpreted
  // blocks (rotating its block log), restores on startup and state-syncs
  // whatever it missed while down. Declared before the runtime — the
  // storage sink must outlive it.
  std::optional<blockdag::sync::DataDir> store;
  if (!opt.data_dir.empty()) {
    store.emplace(opt.data_dir);
    if (!store->ok()) {
      std::fprintf(stderr,
                   "simctl %s: cannot open --data-dir %s (mkdir failed?)\n",
                   role, opt.data_dir.c_str());
      return 3;
    }
    cfg.storage = [&store](ServerId) { return &*store; };
    cfg.checkpoint.epoch_blocks = opt.checkpoint_blocks;
    cfg.enable_state_sync = true;
    cfg.sync.progress_timeout = sim_ms(200);
    cfg.sync.retry_base = sim_ms(50);
  }

  // Latest digest beat per peer. Written by the control handler on the
  // hosted server's thread, read by this (harness) thread. Declared
  // *before* the runtime: the handler may still run (a lingering peer
  // re-sending its final beat) until the runtime's destructor joins the
  // poll and node threads, so the captured state must outlive it.
  struct PeerView {
    Bytes dag, interp;
    bool done = false;
    bool seen = false;
  };
  std::mutex peers_mu;
  std::vector<PeerView> peers(opt.n);

  rt::ThreadedRuntime runtime(*factory, cfg);
  if (!runtime.transport_ok()) {
    std::fprintf(stderr,
                 "simctl %s: failed to bind 127.0.0.1:%u (port in use or "
                 "port range exceeds 65535?)\n",
                 role, opt.port + opt.id);
    return 2;
  }
  if (!runtime.restore_failures().empty()) {
    // Distinct from a settle timeout (1) and a bind failure (2): the
    // durable state exists but will not restore — running on would risk
    // equivocation (a lost own-block means a reused sequence number).
    std::fprintf(stderr,
                 "simctl %s: corrupt durable state in --data-dir %s — refusing "
                 "to run half-restored (wipe the directory to rejoin fresh)\n",
                 role, opt.data_dir.c_str());
    return 3;
  }
  // Control-plane sender, transport-agnostic: kControl frames bypass the
  // protocol handler on both socket backends.
  const auto send_control = [&runtime, &opt](ServerId to, Bytes beat) {
    if (runtime.udp()) {
      runtime.udp()->send(opt.id, to, WireKind::kControl, std::move(beat));
    } else {
      runtime.tcp()->send(opt.id, to, WireKind::kControl, std::move(beat));
    }
  };
  runtime.set_control_handler(
      opt.id, [&peers_mu, &peers](ServerId from, const Bytes& payload) {
        Reader r(payload);
        const auto version = r.u8();
        if (!version || *version != 1) return;
        const auto dag = r.bytes();
        const auto interp = r.bytes();
        const auto done = r.u8();
        if (!dag || !interp || !done || !r.done()) return;
        std::lock_guard<std::mutex> lock(peers_mu);
        peers[from] = PeerView{*dag, *interp, *done != 0, true};
      });

  std::printf("simctl %s — server %u of %u, protocol=%s, %s 127.0.0.1:%u..%u%s\n",
              role, opt.id, opt.n, opt.protocol.c_str(), opt.runtime.c_str(),
              opt.port, opt.port + opt.n - 1,
              opt.loss > 0.0 ? " (lossy)" : "");
  runtime.start();
  if (store) {
    // Catch up on history missed while down (restart over an existing data
    // dir) or never seen (fresh dir joining a running cluster). For a
    // cluster starting together this is a cheap no-op round: peers answer
    // from near-empty DAGs and gossip dedup drops the overlap.
    runtime.start_sync(opt.id);
  }

  // This process's share of the workload: the requests the scenario's
  // burst rule assigns to this member's server, as every `simctl run`
  // issues them. A restored member skips instances its pre-crash
  // incarnation already delivered — the indication log survives the
  // crash, and re-issuing a completed instance would double-deliver it.
  ScenarioConfig workload;
  workload.seed = opt.seed;
  workload.n_servers = opt.n;
  workload.protocol = opt.protocol;
  workload.instances = opt.instances;
  std::vector<ServerId> servers(opt.n);
  std::iota(servers.begin(), servers.end(), 0);
  std::vector<bool> delivered(opt.instances);
  for (std::uint32_t i = 0; i < opt.instances; ++i) {
    delivered[i] = runtime.indicated_count(kScenarioLabelBase + i) != 0;
  }
  issue_scenario_burst(workload, {0, 0, opt.instances}, servers,
                       [&](ServerId server, Label label, Bytes request) {
                         if (server == opt.id && !delivered[label - kScenarioLabelBase]) {
                           runtime.request(server, label, std::move(request));
                         }
                       });

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(static_cast<std::uint64_t>(opt.seconds * 1e9));
  const auto labels_complete = [&] {
    for (std::uint32_t i = 0; i < opt.instances; ++i) {
      if (runtime.indicated_count(kScenarioLabelBase + i) != 1) return false;
    }
    return true;
  };

  // Phase 1: paced dissemination until every instance indicated locally.
  while (std::chrono::steady_clock::now() < deadline && !labels_complete()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Phase 2: stop building blocks; keep the receive path, FWD recovery and
  // interpretation live, and exchange digest beats until the whole cluster
  // agrees (every further block could only chase a moving target — with
  // builders stopped, the joint DAG is a fixed set to drain toward).
  runtime.stop();

  int exit_code = 1;
  Bytes last_dag, last_interp;
  int stable = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const bool force_gc = cfg.checkpoint.epoch_blocks != 0;
    const auto [dag, interp, pending] =
        runtime.call(opt.id, [force_gc](Shim& shim) {
          shim.interpreter().run();
          // With checkpoint epochs on, per-member GC cadences leave
          // different live sets for the same joint DAG; prune to the
          // fixpoint before sampling so digests are comparable (every
          // member must do this — hence "all members agree on --data-dir").
          if (force_gc) shim.collect_garbage();
          return std::make_tuple(
              rt::dag_digest(shim.dag()),
              rt::interpretation_digest(shim.interpreter(), shim.dag()),
              shim.gossip().pending_blocks());
        });
    stable = (dag == last_dag && interp == last_interp) ? stable + 1 : 0;
    last_dag = dag;
    last_interp = interp;
    const bool self_done = labels_complete() && pending == 0 && stable >= 2;

    const Bytes beat = encode_digest_beat(dag, interp, self_done);
    for (ServerId s = 0; s < opt.n; ++s) {
      if (s != opt.id) send_control(s, Bytes(beat));
    }

    bool cluster_done = self_done;
    {
      std::lock_guard<std::mutex> lock(peers_mu);
      for (ServerId s = 0; s < opt.n && cluster_done; ++s) {
        if (s == opt.id) continue;
        const PeerView& peer = peers[s];
        if (!peer.seen || !peer.done || peer.dag != dag || peer.interp != interp) {
          cluster_done = false;
        }
      }
    }
    if (cluster_done) {
      // Linger a few beats so peers still sampling can observe agreement
      // before this process (and its sockets) disappear.
      for (int i = 0; i < 3; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        for (ServerId s = 0; s < opt.n; ++s) {
          if (s != opt.id) send_control(s, Bytes(beat));
        }
      }
      exit_code = 0;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const std::uint64_t blocks = runtime.call(opt.id, [](Shim& shim) {
    return shim.gossip().stats().blocks_inserted;
  });
  std::printf("server %u: %llu blocks, dag=%s interp=%s\n", opt.id,
              static_cast<unsigned long long>(blocks),
              to_hex(last_dag).substr(0, 16).c_str(),
              to_hex(last_interp).substr(0, 16).c_str());
  const InterpreterStats is = runtime.interpreter_stats();
  std::printf("interpretation: %llu blocks, %llu delivered, %llu indications\n",
              static_cast<unsigned long long>(is.blocks_interpreted),
              static_cast<unsigned long long>(is.messages_delivered),
              static_cast<unsigned long long>(is.indications));
  if (store) {
    const auto recovery = runtime.sync_snapshot(opt.id);
    std::printf(
        "recovery: restored=%s (epoch %llu, %llu ckpt + %llu log blocks, "
        "%llu interpreted live), %llu checkpoints stored, sync: %llu "
        "completed / %llu blocks added\n",
        recovery.restore.restored ? "yes" : "no",
        static_cast<unsigned long long>(recovery.restore.checkpoint_epoch),
        static_cast<unsigned long long>(recovery.restore.blocks_from_checkpoint),
        static_cast<unsigned long long>(recovery.restore.own_blocks_from_log +
                                        recovery.restore.recv_blocks_from_log),
        static_cast<unsigned long long>(recovery.blocks_interpreted),
        static_cast<unsigned long long>(recovery.checkpointer.checkpoints_stored),
        static_cast<unsigned long long>(recovery.sync.completions),
        static_cast<unsigned long long>(recovery.sync.blocks_added));
  }
  if (runtime.udp()) {
    const rt::UdpStats udp = runtime.udp()->stats();
    std::printf("sockets: %llu datagrams sent, %llu received, "
                "%llu retransmits, %llu injected drops\n",
                static_cast<unsigned long long>(udp.datagrams_sent),
                static_cast<unsigned long long>(udp.datagrams_received),
                static_cast<unsigned long long>(udp.retransmits),
                static_cast<unsigned long long>(udp.injected_drops));
  } else {
    const rt::TcpStats tcp = runtime.tcp()->stats();
    std::printf("sockets: %llu connects, %llu frames sent, %llu received\n",
                static_cast<unsigned long long>(tcp.connects),
                static_cast<unsigned long long>(tcp.frames_sent),
                static_cast<unsigned long long>(tcp.frames_received));
  }
  std::printf("%s\n", exit_code == 0
                          ? "OK — cluster-wide identical DAG + interpretation digests"
                          : "TIMEOUT — cluster did not reach digest agreement");
  return exit_code;
}

int cmd_member(int argc, char** argv, bool join) {
  MemberOptions opt;
  if (!parse_member_args(argc, argv, opt, join)) {
    std::fprintf(stderr,
                 "usage: simctl serve --n N --port PORT [--runtime tcp|udp] "
                 "[--loss P]\n"
                 "                    [--protocol P] [--instances K] "
                 "[--seconds S]\n"
                 "                    [--interval MS] [--seed X] "
                 "[--sig ideal|hmac|wots]\n"
                 "                    [--data-dir DIR] [--checkpoint K]\n"
                 "       simctl join --id I --n N --port PORT [same options]\n"
                 "(--data-dir: persist checkpoints + block log, restore on "
                 "restart; exit 3 on corrupt state. All members must agree "
                 "on whether --data-dir is used.)\n");
    return 2;
  }
  return run_member(opt, join ? "join" : "serve");
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
  if (argc > 1 && std::strcmp(argv[1], "fuzz") == 0) {
    return cmd_fuzz(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "replay") == 0) {
    return cmd_replay(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return cmd_member(argc - 1, argv + 1, /*join=*/false);
  }
  if (argc > 1 && std::strcmp(argv[1], "join") == 0) {
    return cmd_member(argc - 1, argv + 1, /*join=*/true);
  }
  const bool explicit_run = argc > 1 && std::strcmp(argv[1], "run") == 0;
  Options opt;
  if (!parse_args(explicit_run ? argc - 1 : argc,
                  explicit_run ? argv + 1 : argv, opt)) {
    std::fprintf(stderr,
                 "usage: simctl [run] [--runtime sim|threads|tcp|udp] [--n N]\n"
                 "              [--protocol brb|bcb|fifo|pbft|beacon]\n"
                 "              [--seconds S] [--instances K] [--interval MS]\n"
                 "              [--seed X] [--drop P] [--byzantine ID:KIND ...]\n"
                 "              [--sig ideal|hmac|wots] [--dot FILE]\n"
                 "       simctl serve --n N --port PORT [options]\n"
                 "       simctl join --id I --n N --port PORT [options]\n"
                 "       simctl fuzz --seeds A..B [options]\n"
                 "       simctl replay --seed S [options]\n");
    return 2;
  }
  return run(opt);
}
