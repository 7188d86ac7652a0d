// RUNTIME-TCP: what the real TCP stack costs, beyond the block throughput
// bench_udp's `throughput` table already compares across all runtimes.
//
// Three tables over the multi-threaded runtime (loopback mailbox transport
// vs real localhost TCP sockets, BRB, paced dissemination):
//   * signatures_ab — ideal signatures vs real schemes verified on the
//     worker pool;
//   * fast_beat — 200µs beats, so the wire rather than the pacing clock is
//     the bottleneck, with the kBatch coalescing counters;
//   * wire — the raw send path alone, without gossip.
//
// Convergence is asserted after each threaded run (Lemma 3.7 joint DAG) —
// a throughput number from a diverged run would be meaningless.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "protocols/brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/bench_report.h"
#include "runtime/table.h"

namespace {

using namespace blockdag;

struct RunResult {
  std::uint64_t blocks = 0;
  double wall_s = 0;
  bool converged = false;
  std::uint64_t batches = 0;           // kBatch frames sent (tcp only)
  std::uint64_t batched_envelopes = 0; // envelopes inside those batches
  std::uint64_t writev_calls = 0;      // coalesced flushes
  VerifierPoolStats verifier;  // all-zero when the pool is off
  double blocks_per_s() const {
    return wall_s > 0 ? static_cast<double>(blocks) / wall_s : 0;
  }
};

constexpr SimTime kBeat = sim_ms(1);  // dissemination interval, all runtimes

RunResult run_threaded(std::uint32_t n, SimTime wall_duration, std::uint32_t requests,
                       rt::TransportBackend backend,
                       SigScheme sig = SigScheme::kIdeal, SimTime beat = kBeat) {
  brb::BrbFactory factory;
  rt::ThreadedConfig cfg;
  cfg.n_servers = n;
  cfg.seed = 42 + n;
  cfg.pacing.interval = beat;
  cfg.backend = backend;  // kTcp: ephemeral localhost ports
  cfg.sig_scheme = sig;  // a real scheme verifies on the verifier pool
  rt::ThreadedRuntime runtime(factory, cfg);
  if (runtime.tcp() && !runtime.tcp()->ok()) return {};
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
  if (runtime.tcp()) {
    const rt::TcpStats stats = runtime.tcp()->stats();
    out.batches = stats.batches_sent;
    out.batched_envelopes = stats.batched_envelopes;
    out.writev_calls = stats.writev_calls;
  }
  out.verifier = runtime.verifier_stats();
  return out;
}

// CLAIM-SIG-AB: the price of REAL signature verification on the hot path.
// Rows per backend: ideal (no real crypto), then each real scheme with
// verification batched onto the worker pool (the only wiring for real
// schemes). The inline rows of the committed 2026-08-08 baselines priced
// verification on the gossip thread itself (DESIGN.md §11).
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
      {"hmac +pool", SigScheme::kHmac},
      {"wots +pool", SigScheme::kWots},
  };
  std::printf("\nCLAIM-SIG-AB: ideal vs real schemes on the verifier pool\n");
  Table table({"n", "runtime", "sig", "blocks", "blocks/s", "verified",
               "cache hits", "converged"});
  for (std::uint32_t n : ns) {
    const std::uint32_t requests = 2 * n;
    for (rt::TransportBackend backend :
         {rt::TransportBackend::kLoopback, rt::TransportBackend::kTcp}) {
      const char* backend_name =
          backend == rt::TransportBackend::kTcp ? "tcp" : "threads";
      for (const Row& row : rows) {
        const RunResult r =
            run_threaded(n, duration, requests, backend, row.sig);
        table.add_row({Table::num(static_cast<std::uint64_t>(n)), backend_name,
                       row.name, Table::num(r.blocks),
                       Table::num(r.blocks_per_s(), 0),
                       Table::num(r.verifier.verified),
                       Table::num(r.verifier.cache_hits),
                       r.converged ? "yes" : "NO"});
      }
    }
  }
  report.add("signatures_ab", table);
}

// FAST-BEAT: the wire as the bottleneck. The 1ms-beat sweep above is
// pacing-bound — nodes idle between beats, the adaptive flush finds the
// socket writable and sends plain frames. Here 200µs beats and a deeper
// request backlog make per-envelope cost dominate, so envelopes coalesce
// into kBatch frames (DESIGN.md §13); the batch columns show how much.
// Convergence (Lemma 3.7: every server's DAG digest byte-identical) is
// asserted per leg and a divergence fails the bench run with exit 1: a
// throughput number from a run that did not reach one joint DAG would be
// meaningless.
bool sweep_fast_beat(BenchReport& report, SimTime duration) {
  constexpr SimTime kFastBeat = sim_us(200);
  const std::vector<std::uint32_t> ns =
      report.smoke() ? std::vector<std::uint32_t>{4}
                     : std::vector<std::uint32_t>{4, 8, 16};
  std::printf("\nFAST-BEAT (tcp): dissemination at 200us beats\n");
  Table table({"n", "blocks", "blocks/s", "batches", "env/batch", "writev",
               "converged"});
  bool all_converged = true;
  for (std::uint32_t n : ns) {
    const std::uint32_t requests = 8 * n;
    const RunResult r =
        run_threaded(n, duration, requests, rt::TransportBackend::kTcp,
                     SigScheme::kIdeal, kFastBeat);
    all_converged = all_converged && r.converged;
    const double env_per_batch =
        r.batches ? static_cast<double>(r.batched_envelopes) /
                        static_cast<double>(r.batches)
                  : 0;
    table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                   Table::num(r.blocks), Table::num(r.blocks_per_s(), 0),
                   Table::num(r.batches), Table::num(env_per_batch, 1),
                   Table::num(r.writev_calls), r.converged ? "yes" : "NO"});
  }
  report.add("fast_beat", table);
  if (!all_converged) {
    std::printf("FAIL: a fast-beat leg diverged (Lemma 3.7 digest mismatch)\n");
  }
  return all_converged;
}

// WIRE: the send path in isolation, with no protocol stack in the way.
// The system-level sweeps above measure blocks/s with DAG insertion,
// interpretation and signature checks competing for the same cores. Here
// the workload is the raw wire pattern of a dissemination beat — every
// server broadcasts one small envelope per round, n·(n−1) envelopes
// crossing real sockets (plus n self-deliveries) — and the handler just
// counts. Pending envelopes pack into kBatch frames drained by writev, one
// mailbox task dispatching a whole batch. The flow-control window keeps the driver inside the per-peer queue
// caps so nothing is evicted: every sent envelope is delivered and the
// clock stops only when the last one lands.
struct WireResult {
  std::uint64_t envelopes = 0;
  double wall_s = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_envelopes = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t resets = 0;
  std::uint64_t evicted = 0;
  bool complete = false;
  double env_per_s() const {
    return wall_s > 0 ? static_cast<double>(envelopes) / wall_s : 0;
  }
};

WireResult run_wire(std::uint32_t n, std::uint64_t rounds, std::size_t payload) {
  rt::IdleTracker idle;
  std::vector<std::unique_ptr<rt::Mailbox>> mailboxes;
  std::vector<rt::Mailbox*> raw;
  for (std::uint32_t s = 0; s < n; ++s) {
    mailboxes.push_back(std::make_unique<rt::Mailbox>(idle));
    raw.push_back(mailboxes.back().get());
  }
  rt::TcpConfig cfg;
  cfg.n_servers = n;
  rt::TcpTransport transport(cfg, raw, &idle);
  if (!transport.ok()) return {};
  std::atomic<std::uint64_t> received{0};
  for (std::uint32_t s = 0; s < n; ++s) {
    transport.attach(s, [&received](ServerId, const Bytes&) {
      received.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> consumers;
  for (std::uint32_t s = 0; s < n; ++s) {
    consumers.emplace_back([m = raw[s]] {
      std::deque<rt::Mailbox::Task> batch;
      while (m->pop_all(batch)) {
        const std::uint64_t n_tasks = batch.size();
        for (rt::Mailbox::Task& task : batch) task();
        batch.clear();
        m->task_done(n_tasks);
      }
    });
  }
  transport.start();

  // broadcast() self-delivers too, so each round lands n·n envelopes.
  // Payloads are tagged envelopes (codec contract): the wire batcher
  // validates inner tags on decode, so the first byte must name the kind.
  const std::uint64_t total = rounds * n * n;
  Bytes body = Bytes(payload, 0xab);
  body[0] = static_cast<std::uint8_t>(WireKind::kBlock);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::uint32_t s = 0; s < n; ++s) {
      transport.broadcast(s, WireKind::kBlock, body);
    }
    // Flow control: stay far inside the per-peer queue caps so no
    // envelope is ever evicted — completeness is asserted below.
    while ((r + 1) * n * n - received.load(std::memory_order_relaxed) >
           8192) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  const auto deadline = t0 + std::chrono::seconds(60);
  while (received.load(std::memory_order_relaxed) < total &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  WireResult out{};
  out.envelopes = received.load(std::memory_order_relaxed);
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.complete = out.envelopes == total;
  const rt::TcpStats stats = transport.stats();
  out.batches = stats.batches_sent;
  out.batched_envelopes = stats.batched_envelopes;
  out.writev_calls = stats.writev_calls;
  out.resets = stats.resets;
  out.evicted = stats.evicted_envelopes;
  transport.stop();
  for (auto& m : mailboxes) m->close();
  for (auto& t : consumers) t.join();
  return out;
}

bool sweep_wire(BenchReport& report) {
  const std::uint32_t n = report.smoke() ? 4 : 8;
  const std::uint64_t rounds = report.smoke() ? 400 : 4000;
  std::printf("\nWIRE (tcp): raw dissemination wire pattern, n=%u\n", n);
  Table table({"payload B", "envelopes", "env/s", "batches", "env/batch",
               "resets", "evicted", "complete"});
  bool all_complete = true;
  for (const std::size_t payload : {96, 1024}) {
    const WireResult r = run_wire(n, rounds, payload);
    all_complete = all_complete && r.complete;
    const double env_per_batch =
        r.batches ? static_cast<double>(r.batched_envelopes) /
                        static_cast<double>(r.batches)
                  : 0;
    table.add_row({Table::num(static_cast<std::uint64_t>(payload)),
                   Table::num(r.envelopes), Table::num(r.env_per_s(), 0),
                   Table::num(r.batches), Table::num(env_per_batch, 1),
                   Table::num(r.resets), Table::num(r.evicted),
                   r.complete ? "yes" : "NO"});
  }
  report.add("wire", table);
  if (!all_complete) {
    std::printf("FAIL: a wire leg lost envelopes (eviction or timeout)\n");
  }
  return all_complete;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("bench_tcp", argc, argv);
  const SimTime duration = report.smoke() ? sim_ms(150) : sim_ms(600);

  std::printf("RUNTIME-TCP: signatures, fast beats and the raw wire — "
              "loopback threads vs TCP\n");
  std::printf("(BRB, %llu ms runs; %u hardware threads)\n\n",
              static_cast<unsigned long long>(duration / sim_ms(1)),
              std::thread::hardware_concurrency());

  sweep_signatures(report, duration);
  const bool fast_beat_ok = sweep_fast_beat(report, duration);
  const bool wire_ok = sweep_wire(report);
  report.note("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  std::printf(
      "threads→tcp is the price of the real network stack: frame codec,\n"
      "syscalls, kernel socket buffers and the poll-thread handoff. In the\n"
      "sig A/B, ideal→'+pool' prices real verification on the verifier\n"
      "pool. fast_beat makes the wire, not the pacing clock, the\n"
      "bottleneck; wire times the send path alone.\n");
  const int rc = report.finish();
  return fast_beat_ok && wire_ok ? rc : 1;
}
