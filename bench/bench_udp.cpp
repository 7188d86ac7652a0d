// RUNTIME-UDP: aggregate block throughput across all four runtimes, plus
// the price of an adversarial wire.
//
// The same shim(P) deployment — BRB, paced dissemination, identical gossip
// config — executed on (a) the deterministic simulator, (b) loopback
// threads, (c) real TCP sockets, (d) real UDP sockets with the userspace
// reliability layer (net/datagram.h: seq/ack, RTO retransmission, dedup
// window), and (e) the same UDP cluster with the in-path fault injector
// dropping 10% of all datagrams. The metric is blocks inserted across all
// servers per wall-clock second. The (c)→(d) delta prices reliability in
// userspace vs the kernel's (chunking, acks, retransmit bookkeeping); the
// (d)→(e) delta prices a lossy network — what retransmission costs when it
// actually has work to do.
//
// Convergence is asserted after each threaded run (Lemma 3.7 joint DAG) —
// a throughput number from a diverged run would be meaningless. Note the
// lossy row converges *under* loss: faults stay active through the settle.
#include <chrono>
#include <cstdio>
#include <thread>

#include "protocols/brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/bench_report.h"
#include "runtime/cluster.h"
#include "runtime/table.h"

namespace {

using namespace blockdag;

struct RunResult {
  std::uint64_t blocks = 0;
  double wall_s = 0;
  bool converged = false;
  std::uint64_t frames = 0;       // frames that crossed a socket
  std::uint64_t retransmits = 0;  // udp only
  std::uint64_t batches = 0;           // kBatch frames sent (udp only)
  std::uint64_t batched_envelopes = 0; // inners across those batches
  VerifierPoolStats verifier;     // all-zero when the pool is off
  double blocks_per_s() const {
    return wall_s > 0 ? static_cast<double>(blocks) / wall_s : 0;
  }
};

constexpr SimTime kBeat = sim_ms(1);  // dissemination interval, all runtimes

RunResult run_sim(std::uint32_t n, SimTime virtual_duration, std::uint32_t requests) {
  brb::BrbFactory factory;
  ClusterConfig cfg;
  cfg.n_servers = n;
  cfg.seed = 42 + n;
  cfg.pacing.interval = kBeat;
  Cluster cluster(factory, cfg);
  cluster.start();
  for (std::uint32_t i = 0; i < requests; ++i) {
    cluster.request(i % n, 1 + i, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run_for(virtual_duration);
  cluster.quiesce();
  RunResult out{};
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (ServerId s : cluster.correct_servers()) {
    out.blocks += cluster.shim(s).gossip().stats().blocks_inserted;
  }
  out.converged = cluster.dags_converged();
  return out;
}

RunResult run_threaded(std::uint32_t n, SimTime wall_duration, std::uint32_t requests,
                       rt::TransportBackend backend, double drop = 0.0,
                       SigScheme sig = SigScheme::kIdeal, SimTime beat = kBeat) {
  brb::BrbFactory factory;
  rt::ThreadedConfig cfg;
  cfg.n_servers = n;
  cfg.seed = 42 + n;
  cfg.pacing.interval = beat;
  cfg.backend = backend;  // socket backends: ephemeral localhost ports
  cfg.sig_scheme = sig;  // a real scheme verifies on the verifier pool
  cfg.udp.fault_seed = 42 + n;
  cfg.udp.default_fault.drop = drop;
  // Quick RTOs so the lossy row measures steady-state retransmission cost,
  // not idle waiting.
  cfg.udp.channel.initial_rto_ns = 5'000'000;
  cfg.udp.channel.max_rto_ns = 80'000'000;
  rt::ThreadedRuntime runtime(factory, cfg);
  if (!runtime.transport_ok()) return {};
  const auto t0 = std::chrono::steady_clock::now();
  runtime.start();
  for (std::uint32_t i = 0; i < requests; ++i) {
    runtime.request(i % n, 1 + i, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(wall_duration));
  runtime.stop();
  RunResult out{};
  out.converged = runtime.quiesce_and_converge();
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.blocks = runtime.total_blocks_inserted();
  const Bytes dag0 = runtime.dag_digest(0);
  for (ServerId s = 1; s < n; ++s) {
    if (runtime.dag_digest(s) != dag0) out.converged = false;
  }
  if (runtime.tcp()) out.frames = runtime.tcp()->stats().frames_received;
  if (runtime.udp()) {
    const rt::UdpStats stats = runtime.udp()->stats();
    out.frames = stats.frames_received;
    out.retransmits = stats.retransmits;
    out.batches = stats.batches_sent;
    out.batched_envelopes = stats.batched_envelopes;
  }
  out.verifier = runtime.verifier_stats();
  return out;
}

// CLAIM-SIG-AB over the UDP wire: ideal vs real WOTS batched onto the
// verifier pool. Retransmitted datagrams re-deliver already-known blocks,
// so the UDP rows also show the verdict cache absorbing duplicate
// verifications.
void sweep_signatures(BenchReport& report, SimTime duration) {
  const std::vector<std::uint32_t> ns =
      report.smoke() ? std::vector<std::uint32_t>{4}
                     : std::vector<std::uint32_t>{4, 8};
  struct Row {
    const char* name;
    SigScheme sig;
  };
  const Row rows[] = {
      {"ideal", SigScheme::kIdeal},
      {"wots +pool", SigScheme::kWots},
  };
  std::printf("\nCLAIM-SIG-AB (udp): ideal vs pooled wots\n");
  Table table({"n", "sig", "blocks", "blocks/s", "verified", "cache hits",
               "rexmit", "converged"});
  for (std::uint32_t n : ns) {
    const std::uint32_t requests = 2 * n;
    for (const Row& row : rows) {
      const RunResult r = run_threaded(n, duration, requests,
                                       rt::TransportBackend::kUdp, 0.0, row.sig);
      table.add_row({Table::num(static_cast<std::uint64_t>(n)), row.name,
                     Table::num(r.blocks), Table::num(r.blocks_per_s(), 0),
                     Table::num(r.verifier.verified),
                     Table::num(r.verifier.cache_hits), Table::num(r.retransmits),
                     r.converged ? "yes" : "NO"});
    }
  }
  report.add("signatures_ab", table);
}

// FAST-BEAT (DESIGN.md §13): 200µs beats and a deep request backlog, so
// per-envelope cost dominates. The loopback legs have no sockets: they
// load the in-process batching layers — the mailbox batch-drain (one
// condvar round per queue swap instead of per task) and gossip egress
// buffering (one mailbox push per destination per flush). The UDP legs add
// one datagram-channel frame (seq/ack state, MTU chunking, RTO
// bookkeeping) per envelope unless envelopes coalesce; on UDP a kBatch is
// one *frame*, so coalescing also shrinks the reliability layer's working
// set: fewer seqs to ack, fewer chunks to track, fewer retransmission
// timers. The lossy row prices the other side: when 10% of datagrams
// vanish, one lost chunk stalls a whole batch. Convergence is asserted per
// leg; a divergence fails the bench (exit 1).
bool sweep_fast_beat(BenchReport& report, SimTime duration) {
  constexpr SimTime kFastBeat = sim_us(200);
  const std::vector<std::uint32_t> ns =
      report.smoke() ? std::vector<std::uint32_t>{4}
                     : std::vector<std::uint32_t>{4, 8, 16};
  std::printf("\nFAST-BEAT (threads, udp): dissemination at 200us beats\n");
  Table table({"n", "backend", "loss", "blocks", "blocks/s", "batches",
               "env/batch", "rexmit", "converged"});
  bool all_converged = true;
  struct Leg {
    std::uint32_t n;
    rt::TransportBackend backend;
    double drop;
  };
  std::vector<Leg> legs;
  for (std::uint32_t n : ns) legs.push_back({n, rt::TransportBackend::kLoopback, 0.0});
  for (std::uint32_t n : ns) legs.push_back({n, rt::TransportBackend::kUdp, 0.0});
  // The lossy-wire row.
  legs.push_back({report.smoke() ? 4u : 8u, rt::TransportBackend::kUdp, 0.10});
  for (const Leg& leg : legs) {
    const std::uint32_t requests = 8 * leg.n;
    const bool udp = leg.backend == rt::TransportBackend::kUdp;
    const RunResult r = run_threaded(leg.n, duration, requests, leg.backend,
                                     leg.drop, SigScheme::kIdeal, kFastBeat);
    all_converged = all_converged && r.converged;
    const double env_per_batch =
        r.batches ? static_cast<double>(r.batched_envelopes) /
                        static_cast<double>(r.batches)
                  : 0;
    table.add_row({Table::num(static_cast<std::uint64_t>(leg.n)),
                   udp ? "udp" : "threads", leg.drop > 0 ? "10%" : "0%",
                   Table::num(r.blocks), Table::num(r.blocks_per_s(), 0),
                   udp ? Table::num(r.batches) : "-",
                   udp ? Table::num(env_per_batch, 1) : "-",
                   udp ? Table::num(r.retransmits) : "-",
                   r.converged ? "yes" : "NO"});
  }
  report.add("fast_beat", table);
  if (!all_converged) {
    std::printf("FAIL: a fast-beat leg diverged (Lemma 3.7 digest mismatch)\n");
  }
  return all_converged;
}

void add_row(Table& table, std::uint32_t n, const char* name, const RunResult& r,
             bool socket_backend) {
  table.add_row({Table::num(static_cast<std::uint64_t>(n)), name,
                 Table::num(r.blocks), Table::num(r.wall_s, 3),
                 Table::num(r.blocks_per_s(), 0),
                 socket_backend ? Table::num(r.frames) : "-",
                 socket_backend ? Table::num(r.retransmits) : "-",
                 r.converged ? "yes" : "NO"});
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("bench_udp", argc, argv);
  const SimTime duration = report.smoke() ? sim_ms(150) : sim_ms(600);
  const std::vector<std::uint32_t> ns =
      report.smoke() ? std::vector<std::uint32_t>{4}
                     : std::vector<std::uint32_t>{4, 8, 16};

  std::printf("RUNTIME-UDP: aggregate blocks/s — sim vs threads vs TCP vs UDP\n");
  std::printf("(BRB, %llu ms run @1ms beats; %u hardware threads)\n\n",
              static_cast<unsigned long long>(duration / sim_ms(1)),
              std::thread::hardware_concurrency());

  Table table({"n", "runtime", "blocks", "wall s", "blocks/s", "frames",
               "rexmit", "converged"});
  for (std::uint32_t n : ns) {
    const std::uint32_t requests = 2 * n;
    add_row(table, n, "sim", run_sim(n, duration, requests), false);
    add_row(table, n, "threads",
            run_threaded(n, duration, requests, rt::TransportBackend::kLoopback),
            false);
    add_row(table, n, "tcp",
            run_threaded(n, duration, requests, rt::TransportBackend::kTcp), true);
    add_row(table, n, "udp",
            run_threaded(n, duration, requests, rt::TransportBackend::kUdp), true);
    add_row(table, n, "udp 10%loss",
            run_threaded(n, duration, requests, rt::TransportBackend::kUdp, 0.10),
            true);
  }
  report.add("throughput", table);
  sweep_signatures(report, duration);
  const bool fast_beat_ok = sweep_fast_beat(report, duration);
  report.note("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  std::printf(
      "tcp→udp prices userspace reliability against the kernel's (chunking,\n"
      "explicit acks, RTO bookkeeping); udp→'udp 10%%loss' prices an actual\n"
      "lossy wire — retransmission with real work to do. The lossy row\n"
      "converges with faults still active: recovery is the reliability\n"
      "layer's job, not the benchmark harness's. fast_beat makes the\n"
      "in-process batching layers (threads) and the wire (udp), not the\n"
      "pacing clock, the bottleneck, so envelopes share mailbox wakeups and\n"
      "reliability-layer frames.\n");
  const int rc = report.finish();
  return fast_beat_ok ? rc : 1;
}
