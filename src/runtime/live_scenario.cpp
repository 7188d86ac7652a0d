#include "runtime/live_scenario.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "rt/threaded_runtime.h"
#include "runtime/byzantine.h"
#include "sync/storage.h"
#include "util/rng.h"

namespace blockdag {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

void derive_wire_profile(const ScenarioConfig& config, LivePlan& plan) {
  const std::uint32_t n = config.n_servers;
  Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);  // distinct from the injector's RNG
  plan.base.drop = 0.25 * rng.unit();
  plan.base.reorder = 0.30 * rng.unit();
  plan.base.duplicate = 0.20 * rng.unit();
  switch (rng.below(3)) {  // geo-latency band
    case 0: break;  // same rack: no added delay
    case 1:
      plan.base.delay_min_us = 100;
      plan.base.delay_max_us = 2000;
      break;
    case 2:
      plan.base.delay_min_us = 1000;
      plan.base.delay_max_us = 8000;
      break;
  }
  // Asymmetric hostility: up to n−1 directed links markedly worse than the
  // baseline (loss is not symmetric in real networks; acks die too).
  const std::uint64_t hostile = rng.below(n);
  for (std::uint64_t k = 0; k < hostile; ++k) {
    const auto from = static_cast<ServerId>(rng.below(n));
    auto to = static_cast<ServerId>(rng.below(n));
    if (to == from) to = (to + 1) % n;
    rt::LinkFault fault = plan.base;
    fault.drop = 0.20 + 0.20 * rng.unit();
    plan.hostile_links.push_back({from, to, fault});
  }
  const bool partition = rng.chance(0.5);
  const auto isolated = static_cast<ServerId>(rng.below(n));
  if (partition) plan.isolated = isolated;
  plan.bursts.push_back({0, 0, config.instances});  // everything up front
}

void derive_churn(const ScenarioConfig& config, LivePlan& plan) {
  static const std::uint64_t kEpochs[] = {3, 4, 6, 8};
  const std::uint32_t n = config.n_servers;
  // The forger needs a real scheme (under the ideal provider there is no
  // verification cost worth attacking) and a cluster big enough to spare a
  // server to the adversary.
  if (config.allow_forger && n >= 4) plan.forger = static_cast<ServerId>(n - 1);
  const std::uint32_t honest = plan.forger ? n - 1 : n;
  Rng rng(config.seed ^ 0x5ca1ab1e0ddba11ULL);  // distinct from other derivations
  plan.epoch_blocks = kEpochs[rng.below(4)];
  // One or two churn events with distinct victims: at most a minority is
  // ever down (crash faults, not partitions — the rest must keep going).
  // Victims come from the honest range only — the forger never "crashes"
  // (an adversary that stops attacking proves nothing).
  const std::uint64_t max_events = honest >= 5 ? 2 : 1;
  const std::size_t n_events = 1 + rng.below(max_events);
  for (std::size_t k = 0; k < n_events; ++k) {
    LivePlan::Churn ev{};
    ev.server = static_cast<ServerId>(rng.below(honest));
    if (k > 0 && ev.server == plan.churn[0].server) {
      ev.server = (ev.server + 1) % honest;
    }
    ev.crash_frac = 0.15 + 0.35 * rng.unit();  // mid-run
    ev.restart_frac = ev.crash_frac + 0.15 + 0.25 * rng.unit();
    plan.churn.push_back(ev);
  }
  // One instance per burst, spread over the first 80% of the run.
  for (std::uint32_t i = 0; i < config.instances; ++i) {
    const double frac = 0.8 * (i + 1.0) / config.instances;
    plan.bursts.push_back({static_cast<SimTime>(frac * config.duration), i, 1});
  }
}

}  // namespace

std::vector<ServerId> LivePlan::correct(std::uint32_t n_servers) const {
  std::vector<ServerId> out;
  for (ServerId s = 0; s < n_servers; ++s) {
    if (s != forger) out.push_back(s);
  }
  return out;
}

std::string LivePlan::summary() const {
  std::string out;
  if (runtime == ScenarioRuntime::kUdp) {
    out += "---- wire-fault profile ----\n";
    appendf(out, "base: drop=%.3f reorder=%.3f dup=%.3f delay=%u..%u us\n",
            base.drop, base.reorder, base.duplicate, base.delay_min_us,
            base.delay_max_us);
    for (const HostileLink& link : hostile_links) {
      appendf(out, "hostile link %u->%u: drop=%.3f\n", link.from, link.to,
              link.fault.drop);
    }
    if (isolated) {
      appendf(out, "partition: {%u} | rest, middle third, healed before settle\n",
              *isolated);
    }
    return out;
  }
  out += "---- crash-churn plan ----\n";
  appendf(out, "checkpoint every %llu blocks, backend=%s, sig=%s\n",
          static_cast<unsigned long long>(epoch_blocks),
          runtime == ScenarioRuntime::kTcp ? "tcp" : "loopback",
          sig_scheme_name(sig_scheme));
  if (forger) {
    appendf(out, "forger adversary at server %u (raw-hosted, rejected ring "
                 "capped at 64)\n", *forger);
  }
  for (const Churn& ev : churn) {
    appendf(out, "kill server %u at %2.0f%%, restart at %2.0f%%\n", ev.server,
            ev.crash_frac * 100, ev.restart_frac * 100);
  }
  return out;
}

LivePlan derive_live_plan(const ScenarioConfig& config) {
  LivePlan plan;
  plan.runtime = config.runtime;
  plan.sig_scheme = config.sig_scheme;
  if (config.runtime == ScenarioRuntime::kUdp) {
    derive_wire_profile(config, plan);
  } else {
    derive_churn(config, plan);
  }
  return plan;
}

ScenarioResult run_live_scenario(const ScenarioConfig& config) {
  ScenarioResult result;
  auto& violations = result.violations;
  if (std::string error = scenario_config_error(config); !error.empty()) {
    violations.push_back(std::move(error));
    return result;
  }
  const LivePlan plan = derive_live_plan(config);
  const std::uint32_t n = config.n_servers;
  const std::vector<ServerId> correct = plan.correct(n);
  const bool durable = plan.epoch_blocks != 0;

  // Storage sinks, the forger's provider and its behaviour object are
  // declared before the runtime: the sinks are the durable state that
  // survives crash()/restart(), and the forger's wire handler and posted
  // ticks run on its thread until the runtime's destructor joins it.
  std::vector<sync::MemStore> stores(durable ? n : 0);
  std::unique_ptr<SignatureProvider> forger_sigs;
  std::unique_ptr<ByzantineServer> forger;

  rt::ThreadedConfig cfg;
  cfg.n_servers = n;
  cfg.seed = config.seed;
  cfg.sig_scheme = config.sig_scheme;
  cfg.pacing.interval = sim_ms(2);
  if (config.runtime == ScenarioRuntime::kUdp) {
    // FWD retry matched to the loss regime: a 5ms retry against a lossy,
    // RTO-bound link just queues duplicate recovery payloads behind the
    // head-of-line chunk and starves the catch-up of a partitioned server.
    cfg.gossip.fwd_retry_delay = sim_ms(20);
    cfg.backend = rt::TransportBackend::kUdp;  // ephemeral ports
    cfg.udp.fault_seed = config.seed;
    cfg.udp.default_fault = plan.base;
    cfg.udp.channel.initial_rto_ns = 5'000'000;
    cfg.udp.channel.max_rto_ns = 80'000'000;
  } else {
    cfg.gossip.fwd_retry_delay = sim_ms(5);
    if (config.runtime == ScenarioRuntime::kTcp) {
      cfg.backend = rt::TransportBackend::kTcp;  // ephemeral ports
    }
  }
  if (durable) {
    cfg.storage = [&stores](ServerId s) { return &stores[s]; };
    cfg.checkpoint.epoch_blocks = plan.epoch_blocks;
    cfg.enable_state_sync = true;
    cfg.sync.progress_timeout = sim_ms(50);
    cfg.sync.retry_base = sim_ms(10);
  }
  if (plan.forger) {
    cfg.raw_servers = {*plan.forger};
    // Small rejected ring: the forger's re-floods (offsets 96.. from its
    // newest forgery) then land on refs already evicted from it, which is
    // exactly what makes verifier-pool verdict-cache hits assertable.
    cfg.gossip.rejected_capacity = 64;
  }

  rt::ThreadedRuntime runtime(*factory_for(config.protocol), cfg);
  if (!runtime.transport_ok()) {
    violations.push_back("failed to bind sockets");
    return result;
  }
  for (const LivePlan::HostileLink& link : plan.hostile_links) {
    runtime.udp()->set_link_fault(link.from, link.to, link.fault);
  }
  if (plan.forger) {
    const ServerId id = *plan.forger;
    forger_sigs = make_signature_provider(config.sig_scheme, n, config.seed);
    forger = make_byzantine(ByzantineKind::kForger, id, runtime.raw_timers(id),
                            runtime.raw_transport(), *forger_sigs,
                            config.seed ^ (0x1000 + id));
    ByzantineServer* raw = forger.get();
    runtime.raw_transport().attach(
        id, [raw](ServerId from, const Bytes& wire) { raw->on_network(from, wire); });
  }
  runtime.start();

  // The plan's timed events, in ns after start.
  enum class Kind { kCrash, kRestart, kPartition, kHeal };
  struct Event {
    SimTime at;
    Kind kind;
    ServerId server;
    bool fired = false;
  };
  std::vector<Event> events;
  for (const LivePlan::Churn& ev : plan.churn) {
    events.push_back({static_cast<SimTime>(ev.crash_frac * config.duration),
                      Kind::kCrash, ev.server});
    events.push_back({static_cast<SimTime>(ev.restart_frac * config.duration),
                      Kind::kRestart, ev.server});
  }
  std::vector<ServerId> rest;
  if (plan.isolated) {
    for (ServerId s : correct) {
      if (s != *plan.isolated) rest.push_back(s);
    }
    events.push_back({config.duration / 3, Kind::kPartition, *plan.isolated});
    events.push_back({2 * (config.duration / 3), Kind::kHeal, *plan.isolated});
  }

  std::vector<bool> down(n, false);
  std::vector<bool> restarted(n, false);
  const auto restart = [&](ServerId s) {
    if (!runtime.restart(s)) {
      violations.push_back("restore failed on restart of server " +
                           std::to_string(s));
    }
    down[s] = false;
    restarted[s] = true;
  };
  Expectations expect;
  const RequestFn request = [&runtime](ServerId s, Label label, Bytes bytes) {
    runtime.request(s, label, std::move(bytes));
  };
  std::size_t next_burst = 0;
  const auto safe_to_issue = [&](SimTime now) {
    for (ServerId s = 0; s < n; ++s) {
      if (down[s]) return false;
    }
    for (const Event& ev : events) {
      if (!ev.fired && ev.kind == Kind::kCrash && ev.at > now &&
          ev.at - now < sim_ms(300)) {
        return false;
      }
    }
    return true;
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const auto now = static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (now >= config.duration) break;
    for (Event& ev : events) {
      if (ev.fired || ev.at > now) continue;
      ev.fired = true;
      switch (ev.kind) {
        case Kind::kCrash:
          runtime.crash(ev.server);
          down[ev.server] = true;
          break;
        case Kind::kRestart: restart(ev.server); break;
        case Kind::kPartition:
          runtime.udp()->set_partition({ev.server}, rest, true);
          break;
        case Kind::kHeal:
          runtime.udp()->set_partition({ev.server}, rest, false);
          break;
      }
    }
    while (next_burst < plan.bursts.size() && plan.bursts[next_burst].at <= now &&
           safe_to_issue(now)) {
      issue_burst(config, plan.bursts[next_burst++], correct, request, expect);
    }
    if (forger) {
      // The adversary's mischief beat, driven from the harness: λ forgeries
      // plus re-floods per beat, executed on the forger's own thread.
      ByzantineServer* raw = forger.get();
      runtime.post(*plan.forger, [raw] { raw->tick(); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Anything still down restarts now; every burst must be issued.
  for (ServerId s = 0; s < n; ++s) {
    if (down[s]) restart(s);
  }
  while (next_burst < plan.bursts.size()) {
    issue_burst(config, plan.bursts[next_burst++], correct, request, expect);
  }

  // Every restarted server must complete a state sync (it retries with
  // backoff until it does; bound the wait in wall-clock).
  const auto sync_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (ServerId s = 0; s < n; ++s) {
    if (!restarted[s]) continue;
    while (!runtime.sync_snapshot(s).sync_completed &&
           std::chrono::steady_clock::now() < sync_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto snap = runtime.sync_snapshot(s);
    if (!snap.sync_completed) {
      violations.push_back("server " + std::to_string(s) +
                           " never completed state sync after restart");
    }
    if (snap.sync.completions == 0) {
      violations.push_back("server " + std::to_string(s) +
                           " reports zero sync completions after restart");
    }
  }

  // Deep settle budget: lossy links stay hostile through settle, so the
  // retransmit/FWD gap-closing can need many beats on a bad seed (with
  // ±RTO jitter on top); converged runs still exit on the early rounds.
  result.converged = runtime.quiesce_and_converge(/*max_rounds=*/256);
  if (!result.converged) {
    violations.push_back("cluster did not quiesce to a converged DAG");
  }
  const ServerId witness = correct.front();
  const Bytes dag0 = runtime.dag_digest(witness);
  const Bytes interp0 = runtime.interpretation_digest(witness);
  for (ServerId s : correct) {
    if (s == witness) continue;
    if (runtime.dag_digest(s) != dag0) {
      violations.push_back("DAG digest mismatch at server " + std::to_string(s));
    }
    if (runtime.interpretation_digest(s) != interp0) {
      violations.push_back("interpretation digest mismatch at server " +
                           std::to_string(s));
    }
  }

  IndicationLogs logs;
  for (ServerId s : correct) {
    logs[s] = runtime.call(s, [](Shim& shim) { return shim.indications(); });
  }
  const auto properties = check_properties(config, logs, expect,
                                           /*run_completed=*/true);
  violations.insert(violations.end(), properties.begin(), properties.end());
  count_indications(logs, expect, result);
  result.blocks = runtime.call(witness, [](Shim& shim) { return shim.dag().size(); });

  if (runtime.udp()) {
    const rt::UdpStats stats = runtime.udp()->stats();
    if (plan.base.drop > 0.01 && stats.injected_drops == 0) {
      violations.push_back("drop profile never fired (injector no-op?)");
    }
    if (plan.base.duplicate > 0.01 && stats.injected_dups == 0) {
      violations.push_back("duplicate profile never fired (injector no-op?)");
    }
    if (stats.corrupt_streams != 0) {
      violations.push_back("corrupt frame stream on a reliable channel");
    }
    if (stats.malformed_dropped != 0) {
      violations.push_back("malformed datagrams between honest endpoints");
    }
  }
  if (durable) {
    // The epochs really happened: someone checkpointed.
    std::uint64_t checkpoints = 0;
    for (ServerId s : correct) {
      checkpoints += runtime.sync_snapshot(s).checkpointer.checkpoints_stored;
    }
    if (checkpoints == 0) {
      violations.push_back("no checkpoint was ever stored (cadence no-op?)");
    }
  }

  if (forger) {
    // Definition 3.3(i) on the real runtime: not one forged block was ever
    // delivered, the rejections are visible in the stats, and the verifier
    // pool's verdict cache absorbed the re-floods. The forged-ref list is
    // read on the forger's own thread (post + future) — the same
    // single-writer discipline as every other state read.
    std::vector<Hash256> forged;
    std::promise<std::vector<Hash256>> promise;
    auto future = promise.get_future();
    ByzantineServer* raw = forger.get();
    if (runtime.post(*plan.forger,
                     [raw, &promise] { promise.set_value(raw->forged_refs()); })) {
      forged = future.get();
    } else {
      forged = forger->forged_refs();  // runtime already shut down
    }
    if (forged.empty()) {
      violations.push_back("forger never fired (adversary no-op?)");
    }
    for (ServerId s : correct) {
      const std::size_t delivered = runtime.call(s, [&forged](Shim& shim) {
        std::size_t count = 0;
        for (const Hash256& ref : forged) {
          if (shim.dag().contains(ref)) ++count;
        }
        return count;
      });
      if (delivered != 0) {
        violations.push_back(std::to_string(delivered) +
                             " forged block(s) delivered at server " +
                             std::to_string(s));
      }
    }
    if (runtime.total_blocks_rejected() == 0) {
      violations.push_back("forger present but blocks_rejected == 0");
    }
    if (runtime.total_rejected_evicted() == 0) {
      violations.push_back("rejected ring never evicted under forger flood");
    }
    if (runtime.verifier_stats().cache_hits == 0) {
      violations.push_back("verifier pool verdict cache never hit under "
                           "re-flooded forgeries");
    }
  }
  return result;
}

}  // namespace blockdag
