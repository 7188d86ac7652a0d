#include "runtime/faultplan.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "util/rng.h"

namespace blockdag {

namespace {

LatencyModel random_latency(Rng& rng) {
  LatencyModel model;
  switch (rng.below(3)) {
    case 0:
      model.kind = LatencyModel::Kind::kFixed;
      model.base = sim_ms(1 + rng.below(8));
      model.spread = 0;
      break;
    case 1:
      model.kind = LatencyModel::Kind::kUniform;
      model.base = sim_ms(1 + rng.below(6));
      model.spread = sim_ms(1 + rng.below(20));
      break;
    default:
      // Heavy tail with a modest median: the tail multiplier can reach
      // ~1000×, so a small spread keeps worst-case delays seconds-scale
      // (finite ⇒ Assumption 1 holds; huge ⇒ the event queue crawls).
      model.kind = LatencyModel::Kind::kHeavyTail;
      model.base = sim_ms(1 + rng.below(4));
      model.spread = sim_ms(1 + rng.below(8));
      break;
  }
  return model;
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

void derive_wire_profile(const ScenarioConfig& config, FaultPlan& plan) {
  const std::uint32_t n = config.n_servers;
  const SimTime d = plan.duration;
  Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);  // distinct from the injector's RNG
  plan.wire.drop = 0.25 * rng.unit();
  plan.wire.reorder = 0.30 * rng.unit();
  plan.wire.duplicate = 0.20 * rng.unit();
  switch (rng.below(3)) {  // geo-latency band
    case 0: break;  // same rack: no added delay
    case 1:
      plan.wire.delay_min_us = 100;
      plan.wire.delay_max_us = 2000;
      break;
    case 2:
      plan.wire.delay_min_us = 1000;
      plan.wire.delay_max_us = 8000;
      break;
  }
  // Asymmetric hostility: up to n−1 directed links markedly worse than the
  // baseline (loss is not symmetric in real networks; acks die too).
  const std::uint64_t hostile = rng.below(n);
  for (std::uint64_t k = 0; k < hostile; ++k) {
    const auto from = static_cast<ServerId>(rng.below(n));
    auto to = static_cast<ServerId>(rng.below(n));
    if (to == from) to = (to + 1) % n;
    rt::LinkFault fault = plan.wire;
    fault.drop = 0.20 + 0.20 * rng.unit();
    plan.hostile_links.push_back({from, to, fault});
  }
  const bool partition = rng.chance(0.5);
  const auto isolated = static_cast<ServerId>(rng.below(n));
  if (partition) {
    FaultPlan::Partition part{d / 3, {isolated}, {}, 2 * (d / 3)};
    for (ServerId s = 0; s < n; ++s) {
      if (s != isolated) part.side_b.push_back(s);
    }
    plan.partitions.push_back(std::move(part));
  }
  plan.bursts.push_back({0, 0, config.instances});  // everything up front
}

void derive_churn(const ScenarioConfig& config, FaultPlan& plan) {
  static const std::uint64_t kEpochs[] = {3, 4, 6, 8};
  const std::uint32_t n = config.n_servers;
  const SimTime d = plan.duration;
  // The forger needs a real scheme (under the ideal provider there is no
  // verification cost worth attacking) and a cluster big enough to spare a
  // server to the adversary.
  const bool forger = config.allow_forger && n >= 4;
  if (forger) plan.byzantine[n - 1] = ByzantineKind::kForger;
  const std::uint32_t honest = forger ? n - 1 : n;
  Rng rng(config.seed ^ 0x5ca1ab1e0ddba11ULL);  // distinct from other derivations
  plan.epoch_blocks = kEpochs[rng.below(4)];
  // One or two churn events with distinct victims: at most a minority is
  // ever down (crash faults, not partitions — the rest must keep going).
  // Victims come from the honest range only — the forger never "crashes"
  // (an adversary that stops attacking proves nothing).
  const std::uint64_t max_events = honest >= 5 ? 2 : 1;
  const std::size_t n_events = 1 + rng.below(max_events);
  for (std::size_t k = 0; k < n_events; ++k) {
    auto server = static_cast<ServerId>(rng.below(honest));
    if (k > 0 && server == plan.churn[0].server) server = (server + 1) % honest;
    const double crash_frac = 0.15 + 0.35 * rng.unit();  // mid-run
    const double restart_frac = crash_frac + 0.15 + 0.25 * rng.unit();
    plan.churn.push_back({server, static_cast<SimTime>(crash_frac * d),
                          static_cast<SimTime>(restart_frac * d)});
  }
  // One instance per burst, spread over the first 80% of the run, each
  // moved past any window from 300ms before a crash to that restart.
  for (std::uint32_t i = 0; i < config.instances; ++i) {
    auto at = static_cast<SimTime>(0.8 * (i + 1.0) / config.instances * d);
    for (bool moved = true; moved;) {
      moved = false;
      for (const FaultPlan::Churn& c : plan.churn) {
        if (at + sim_ms(300) > c.crash_at && at < c.recover_at) {
          at = c.recover_at;
          moved = true;
        }
      }
    }
    plan.bursts.push_back({at, i, 1});
  }
}

}  // namespace

const char* scenario_runtime_name(ScenarioRuntime runtime) {
  switch (runtime) {
    case ScenarioRuntime::kSim: return "sim";
    case ScenarioRuntime::kThreads: return "threads";
    case ScenarioRuntime::kTcp: return "tcp";
    case ScenarioRuntime::kUdp: return "udp";
  }
  return "?";
}

std::optional<ScenarioRuntime> parse_scenario_runtime(std::string_view name) {
  for (ScenarioRuntime r : {ScenarioRuntime::kSim, ScenarioRuntime::kThreads,
                            ScenarioRuntime::kTcp, ScenarioRuntime::kUdp}) {
    if (name == scenario_runtime_name(r)) return r;
  }
  return std::nullopt;
}

SimTime effective_duration(const ScenarioConfig& config) {
  // The plan invariants (burst/crash separation as duration fractions vs
  // the absolute pacing interval) assume at least a second of simulated
  // time; shorter requests are rounded up rather than silently unsound.
  if (config.runtime != ScenarioRuntime::kSim) return config.duration;
  return std::max<SimTime>(config.duration, sim_sec(1));
}

FaultPlan derive_fault_plan(const ScenarioConfig& config) {
  FaultPlan plan;
  plan.runtime = config.runtime;
  plan.sig_scheme = config.sig_scheme;
  plan.duration = effective_duration(config);
  // The live grammars build a block every 2 ms of wall-clock.
  if (config.runtime != ScenarioRuntime::kSim) plan.pacing.interval = sim_ms(2);
  if (config.runtime == ScenarioRuntime::kUdp) {
    derive_wire_profile(config, plan);
    return plan;
  }
  if (config.runtime != ScenarioRuntime::kSim) {
    derive_churn(config, plan);
    return plan;
  }
  Rng rng(config.seed ^ 0xfa171e5cafeb10c5ULL);
  const SimTime d = plan.duration;
  const std::uint32_t n = config.n_servers;
  const std::uint32_t f = max_faulty(n);

  plan.pacing.interval = sim_ms(5 + rng.below(8));  // 5..12 ms

  plan.initial_net.latency = random_latency(rng);
  plan.initial_net.drop_probability = rng.chance(0.4) ? 0.02 + rng.unit() * 0.18 : 0.0;
  plan.initial_net.max_drops_per_pair = 12;
  if (rng.chance(0.3)) {
    // Partial synchrony: chaotic-but-finite delays before GST.
    plan.initial_net.gst = d / 10 + rng.below(d / 5);
    plan.initial_net.pre_gst_latency =
        LatencyModel{LatencyModel::Kind::kUniform, sim_ms(10), sim_ms(150)};
  }

  if (f > 0) {
    const std::uint32_t count = static_cast<std::uint32_t>(rng.below(f + 1));
    // kForger joins the pool only under allow_forger (see ScenarioConfig);
    // with the flag set, at least one drawn adversary is forced to be a
    // forger so forger-slice fuzz runs always exercise rejection.
    const std::uint64_t kinds = config.allow_forger ? 7 : 6;
    while (plan.byzantine.size() < count) {
      const auto server = static_cast<ServerId>(rng.below(n));
      if (plan.byzantine.count(server)) continue;
      plan.byzantine[server] = static_cast<ByzantineKind>(rng.below(kinds));
    }
    if (config.allow_forger && count > 0) {
      const bool has_forger =
          std::any_of(plan.byzantine.begin(), plan.byzantine.end(),
                      [](const auto& kv) {
                        return kv.second == ByzantineKind::kForger;
                      });
      if (!has_forger) plan.byzantine.begin()->second = ByzantineKind::kForger;
    }
  }

  std::vector<ServerId> candidates;
  for (ServerId s = 0; s < n; ++s) {
    if (!plan.byzantine.count(s)) candidates.push_back(s);
  }
  const std::uint32_t max_crashes =
      std::min<std::uint32_t>(2, static_cast<std::uint32_t>(candidates.size()) - 1);
  const std::uint32_t count = static_cast<std::uint32_t>(rng.below(max_crashes + 1));
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto pick = rng.below(candidates.size());
    const ServerId server = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    FaultPlan::Churn churn;
    churn.server = server;
    churn.crash_at = (d * 45) / 100 + rng.below(d / 4);          // [0.45d, 0.70d)
    churn.recover_at = churn.crash_at + d / 50 + rng.below((d * 3) / 20);
    churn.recover_at = std::min(churn.recover_at, (d * 85) / 100);
    plan.churn.push_back(churn);
  }
  std::sort(plan.churn.begin(), plan.churn.end(),
            [](const auto& a, const auto& b) { return a.crash_at < b.crash_at; });

  const std::uint32_t n_partitions = static_cast<std::uint32_t>(rng.below(3));
  for (std::uint32_t i = 0; i < n_partitions && n >= 2; ++i) {
    FaultPlan::Partition part;
    part.at = d / 12 + rng.below(d / 2);
    part.heal_at = std::min(part.at + d / 50 + rng.below(d / 5), (d * 9) / 10);
    if (part.heal_at <= part.at) part.heal_at = part.at + d / 100;
    std::vector<bool> in_a(n, false);
    for (ServerId s = 0; s < n; ++s) in_a[s] = rng.chance(0.5);
    // Both sides non-empty, deterministically.
    if (std::find(in_a.begin(), in_a.end(), true) == in_a.end()) in_a[0] = true;
    if (std::find(in_a.begin(), in_a.end(), false) == in_a.end()) in_a[n - 1] = false;
    for (ServerId s = 0; s < n; ++s) {
      (in_a[s] ? part.side_a : part.side_b).push_back(s);
    }
    plan.partitions.push_back(std::move(part));
  }
  std::sort(plan.partitions.begin(), plan.partitions.end(),
            [](const auto& a, const auto& b) { return a.at < b.at; });

  const std::uint32_t n_regimes = static_cast<std::uint32_t>(rng.below(4));
  for (std::uint32_t i = 0; i < n_regimes; ++i) {
    FaultPlan::Regime regime;
    regime.at = d / 10 + rng.below((d * 7) / 10);  // [0.1d, 0.8d)
    regime.latency = random_latency(rng);
    regime.drop_probability = rng.chance(0.5) ? rng.unit() * 0.25 : 0.0;
    regime.max_drops_per_pair = 12 + 8 * (i + 1);  // budget grows, never shrinks
    plan.regimes.push_back(regime);
  }
  std::sort(plan.regimes.begin(), plan.regimes.end(),
            [](const auto& a, const auto& b) { return a.at < b.at; });

  const std::uint32_t n_bursts =
      1 + static_cast<std::uint32_t>(rng.below(std::min<std::uint32_t>(3, config.instances ? config.instances : 1)));
  std::uint32_t assigned = 0;
  for (std::uint32_t i = 0; i < n_bursts && assigned < config.instances; ++i) {
    FaultPlan::Burst burst;
    burst.at = d / 50 + rng.below((d * 38) / 100);  // [0.02d, 0.4d)
    burst.first_instance = assigned;
    const std::uint32_t remaining_bursts = n_bursts - i;
    const std::uint32_t remaining = config.instances - assigned;
    burst.count = i + 1 == n_bursts
                      ? remaining
                      : std::max<std::uint32_t>(1, remaining / remaining_bursts);
    assigned += burst.count;
    plan.bursts.push_back(burst);
  }
  std::sort(plan.bursts.begin(), plan.bursts.end(),
            [](const auto& a, const auto& b) { return a.at < b.at; });

  return plan;
}

namespace {

std::string ms(SimTime t) { return std::to_string(t / 1'000'000) + "ms"; }

std::string latency_str(const LatencyModel& m) {
  switch (m.kind) {
    case LatencyModel::Kind::kFixed:
      return "fixed(" + ms(m.base) + ")";
    case LatencyModel::Kind::kUniform:
      return "uniform(" + ms(m.base) + "+" + ms(m.spread) + ")";
    case LatencyModel::Kind::kHeavyTail:
      return "heavytail(" + ms(m.base) + "~" + ms(m.spread) + ")";
  }
  return "?";
}

std::string side_str(const std::vector<ServerId>& side) {
  std::string out = "{";
  for (std::size_t i = 0; i < side.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(side[i]);
  }
  return out + "}";
}

}  // namespace

std::string FaultPlan::summary() const {
  std::string out;
  if (runtime == ScenarioRuntime::kUdp) {
    out += "---- wire-fault profile ----\n";
    appendf(out, "base: drop=%.3f reorder=%.3f dup=%.3f delay=%u..%u us\n",
            wire.drop, wire.reorder, wire.duplicate, wire.delay_min_us,
            wire.delay_max_us);
    for (const HostileLink& link : hostile_links) {
      appendf(out, "hostile link %u->%u: drop=%.3f\n", link.from, link.to,
              link.fault.drop);
    }
    for (const Partition& p : partitions) {
      appendf(out, "partition: {%u} | rest, middle third, healed before settle\n",
              p.side_a.front());
    }
    return out;
  }
  if (runtime != ScenarioRuntime::kSim) {
    out += "---- crash-churn plan ----\n";
    appendf(out, "checkpoint every %llu blocks, backend=%s, sig=%s\n",
            static_cast<unsigned long long>(epoch_blocks),
            runtime == ScenarioRuntime::kTcp ? "tcp" : "loopback",
            sig_scheme_name(sig_scheme));
    for (const auto& [server, kind] : byzantine) {
      appendf(out, "forger adversary at server %u (raw-hosted, rejected ring "
                   "capped at 64)\n", server);
    }
    for (const Churn& c : churn) {
      appendf(out, "kill server %u at %2.0f%%, restart at %2.0f%%\n", c.server,
              100.0 * static_cast<double>(c.crash_at) / static_cast<double>(duration),
              100.0 * static_cast<double>(c.recover_at) / static_cast<double>(duration));
    }
    return out;
  }
  out += "pacing " + ms(pacing.interval) + ", latency " +
         latency_str(initial_net.latency) + ", drop " +
         std::to_string(initial_net.drop_probability);
  if (initial_net.gst > 0) out += ", gst " + ms(initial_net.gst);
  out += "\n";
  for (const auto& [server, kind] : byzantine) {
    out += "byzantine " + std::to_string(server) + ":" +
           byzantine_kind_name(kind) + "\n";
  }
  for (const auto& c : churn) {
    out += "crash " + std::to_string(c.server) + " @" + ms(c.crash_at) +
           " recover @" + ms(c.recover_at) + "\n";
  }
  for (const auto& p : partitions) {
    out += "partition " + side_str(p.side_a) + "|" + side_str(p.side_b) + " @" +
           ms(p.at) + " heal @" + ms(p.heal_at) + "\n";
  }
  for (const auto& r : regimes) {
    out += "regime @" + ms(r.at) + " latency " + latency_str(r.latency) +
           " drop " + std::to_string(r.drop_probability) + "\n";
  }
  for (const auto& b : bursts) {
    out += "burst @" + ms(b.at) + " instances [" +
           std::to_string(b.first_instance) + "," +
           std::to_string(b.first_instance + b.count) + ")\n";
  }
  return out;
}

}  // namespace blockdag
