// Randomized fault plans for the scenario engine (DESIGN.md §6).
//
// A derived FaultPlan is a *pure function* of a ScenarioConfig (`simctl
// run` writes its plan by hand instead): the same
// (runtime, seed, n, protocol, duration, instances) always derives the
// same timed schedule. That purity is what makes every fuzzed execution
// replayable from its one-line repro (`simctl replay --seed S …`) — bit
// for bit on the simulator, plan for plan on the real runtimes. Three
// grammars, chosen by the runtime:
//   * sim — partitions, latency/drop regime switches, crash/recovery churn
//     (restarts replay each server's block log, as on threads/tcp),
//     byzantine mixes over every ByzantineKind and client request bursts;
//   * udp — a wire-fault profile the UDP transport injects live: a
//     baseline loss/reorder/duplication regime, a geo-latency band, up to
//     n−1 asymmetric hostile links and, on half the seeds, one server
//     partitioned off for the middle third of the run. Lossy faults stay on
//     through settle; retransmission and gossip FWD must close the gap;
//   * threads / tcp — crash churn over durable storage: checkpoint epochs,
//     one or two servers crashed mid-run (the instant after a SIGKILL) and
//     restarted over their surviving storage, never wiped (a wiped server
//     would re-use sequence numbers: amnesia, outside the model — DESIGN.md
//     §10). With allow_forger and n >= 4 the last server is a forger.
// The udp grammar draws from seed ^ 0x9e3779b97f4a7c15 and the churn
// grammar from seed ^ 0x5ca1ab1e0ddba11, so neither depends on the other.
//
// Every derived sim plan respects the invariants the property checkers
// assume (pinned by tests/e2e/scenario_test.cpp FaultPlanInvariants):
//   * at most f = ⌊(n-1)/3⌋ byzantine servers, kinds drawn from all six
//     ByzantineKinds; byzantine servers never crash;
//   * partitions always heal, by 0.9 × duration (Assumption 1: partitions
//     delay, never destroy);
//   * drop regimes keep a finite per-pair budget (transient loss only);
//   * request bursts finish by 0.4 × duration, crash windows start at
//     0.45 × duration — so a burst's requests are always disseminated
//     before their server can crash (the request buffer is not persisted;
//     see DESIGN.md §6) — and every crashed server recovers by 0.85 ×
//     duration, before the run quiesces;
//   * liveness-flavoured properties are therefore checkable with
//     run_completed = true at the end of every scenario.
// The churn grammar keeps a live majority (at most a minority down, the
// forger never crashes), restarts every victim by 0.9 × duration, and
// moves each burst out of any window from 300ms before a crash until that
// server's restart: a request still unblockified when its server crashes
// dies with it (correct crash semantics, but not what totality quantifies
// over) — tests/runtime/live_scenario_test.cpp pins these.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rt/udp_transport.h"
#include "runtime/byzantine.h"
#include "shim/pacing.h"
#include "sim/network.h"

namespace blockdag {

// Where a scenario runs: the deterministic simulator (runtime/cluster.h)
// or rt::ThreadedRuntime over the loopback mailbox transport, real
// localhost TCP sockets, or real UDP datagrams with in-path fault
// injection.
enum class ScenarioRuntime { kSim, kThreads, kTcp, kUdp };

const char* scenario_runtime_name(ScenarioRuntime runtime);
std::optional<ScenarioRuntime> parse_scenario_runtime(std::string_view name);

struct ScenarioConfig {
  std::uint64_t seed = 0;
  std::uint32_t n_servers = 4;
  // One of: brb, bcb, fifo, pbft, beacon (ProtocolFactory names modulo
  // spelling; see runtime/scenario.cpp).
  std::string protocol = "brb";
  // The simulator clamps it to >= 1s (effective_duration); the real
  // runtimes take it as given, in wall-clock ns.
  SimTime duration = sim_sec(1);
  std::uint32_t instances = 6;    // parallel protocol instances (labels)
  // Adds kForger to the byzantine-kind pool. Gated separately so plans for
  // pre-forger seeds stay byte-identical: flipping this changes every
  // RNG draw after the kind pool, i.e. it is a different fuzz grammar.
  bool allow_forger = false;
  // Signature scheme (ideal | hmac | wots). Scheme choice never affects
  // the derived plan — only the crypto the cluster runs under.
  SigScheme sig_scheme = SigScheme::kIdeal;
  ScenarioRuntime runtime = ScenarioRuntime::kSim;
};

struct FaultPlan {
  struct Partition {
    SimTime at;
    std::vector<ServerId> side_a;
    std::vector<ServerId> side_b;
    SimTime heal_at;
  };
  struct Regime {
    SimTime at;
    LatencyModel latency;
    double drop_probability;
    std::uint32_t max_drops_per_pair;  // cumulative budget (only ever grows)
  };
  struct Churn {
    ServerId server;
    SimTime crash_at;
    SimTime recover_at;
  };
  struct Burst {
    SimTime at;
    std::uint32_t first_instance;  // instances [first, first + count)
    std::uint32_t count;
  };
  struct HostileLink {
    ServerId from;
    ServerId to;
    rt::LinkFault fault;
  };

  // The grammar's inputs the summary names.
  ScenarioRuntime runtime = ScenarioRuntime::kSim;
  SigScheme sig_scheme = SigScheme::kIdeal;
  SimTime duration = 0;  // effective_duration: every time below is within it

  std::map<ServerId, ByzantineKind> byzantine;
  std::vector<Partition> partitions;
  std::vector<Regime> regimes;  // sim only
  std::vector<Churn> churn;  // at most one crash per server; windows of
                             // different servers may overlap
  std::vector<Burst> bursts;
  NetworkConfig initial_net;  // sim only
  PacingConfig pacing;        // every runtime's block-building beat
  rt::LinkFault wire;                      // udp: every link's baseline
  std::vector<HostileLink> hostile_links;  // udp: worse directed links
  std::uint64_t epoch_blocks = 0;  // threads/tcp: checkpoint cadence

  // Human-readable multi-line description (replay/trace output); on the
  // real runtimes headed by its `---- … ----` title line.
  std::string summary() const;
};

// Deterministically derives the plan from the config (see file comment).
FaultPlan derive_fault_plan(const ScenarioConfig& config);

// The run length: on the simulator, duration clamped to the minimum the
// plan invariants assume; on the real runtimes, duration as given.
SimTime effective_duration(const ScenarioConfig& config);

}  // namespace blockdag
