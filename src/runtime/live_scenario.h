// Seeded scenarios on the real runtimes (DESIGN.md §6): the scenario
// engine's requests, checkers and digests, driven through
// rt::ThreadedRuntime instead of the simulator.
//
// A LivePlan is a pure function of the ScenarioConfig, like a FaultPlan;
// the execution under it is not (real threads, real sockets, a real
// clock). Two grammars, chosen by the runtime:
//   * udp — a wire-fault profile injected live by the UDP transport: a
//     baseline loss/reorder/duplication regime, a geo-latency band, up to
//     n−1 asymmetric hostile links and, on half the seeds, one server
//     partitioned off for the middle third of the run. Lossy faults stay on
//     through settle; retransmission and gossip FWD must close the gap.
//   * threads / tcp — crash churn over durable storage: per-server
//     MemStores with checkpoint epochs, one or two servers crashed mid-run
//     (ThreadedRuntime::crash, the instant after a SIGKILL) and restarted
//     over their surviving storage, never wiped (a wiped server would
//     re-use sequence numbers: amnesia, outside the model — DESIGN.md
//     §10). With a real signature scheme and n >= 4 the last server is a
//     raw-hosted forger flooding invalidly-signed blocks.
// Every run ends with the engine's checks: check_properties over the
// correct servers' indication logs (Shim::indications() survives a
// restore), identical DAG and interpretation digests, and the backend's
// sanity checks (the injector fired, no frame stream corrupted, a
// checkpoint was stored, every restarted server synced, no forged block
// delivered).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rt/udp_transport.h"
#include "runtime/scenario.h"

namespace blockdag {

struct LivePlan {
  struct HostileLink {
    ServerId from;
    ServerId to;
    rt::LinkFault fault;
  };
  struct Churn {
    ServerId server;
    double crash_frac;    // crash time as a fraction of the run
    double restart_frac;  // restart time, ditto (> crash_frac)
  };

  ScenarioRuntime runtime = ScenarioRuntime::kThreads;
  SigScheme sig_scheme = SigScheme::kIdeal;

  // udp: the wire-fault profile.
  rt::LinkFault base;
  std::vector<HostileLink> hostile_links;
  std::optional<ServerId> isolated;  // {isolated} | rest, middle third

  // threads / tcp: durable crash churn.
  std::uint64_t epoch_blocks = 0;  // checkpoint cadence; 0 = no storage
  std::optional<ServerId> forger;
  std::vector<Churn> churn;  // distinct victims, never the forger

  // Request bursts; `at` is wall-clock ns after start. Each fires once
  // every server is up and no crash is due within 300ms: a request still
  // unblockified when its server crashes dies with it (correct crash
  // semantics, but not what totality quantifies over).
  std::vector<FaultPlan::Burst> bursts;

  // The servers that run the protocol (all but the forger).
  std::vector<ServerId> correct(std::uint32_t n_servers) const;

  // Human-readable multi-line description, headed by its `---- … ----`
  // title line (simctl replay output).
  std::string summary() const;
};

// Deterministically derives the plan from a real-runtime config. The two
// grammars draw from their own RNG streams (seed ^ 0x9e3779b97f4a7c15 for
// the wire profile, seed ^ 0x5ca1ab1e0ddba11 for churn, epochs and the
// forger), so a seed's plan never depends on the other grammar.
LivePlan derive_live_plan(const ScenarioConfig& config);

// Runs one scenario on config.runtime (threads, tcp or udp) to completion.
// Not replayable bit for bit — run_digest stays empty — but the plan is.
ScenarioResult run_live_scenario(const ScenarioConfig& config);

}  // namespace blockdag
