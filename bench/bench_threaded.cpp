// RUNTIME-THREADS: aggregate block throughput of the two runtimes.
//
// The same shim(P) deployment — BRB, paced dissemination, identical gossip
// config — executed (a) on the deterministic single-threaded simulator
// (runtime/cluster.h) and (b) on the multi-threaded in-process runtime
// (rt/threaded_runtime.h), at n = 4..32 servers. The metric is blocks
// inserted across all servers per *wall-clock* second: how fast each
// runtime pushes the identical protocol stack on this hardware. The sim
// figure is also the event-loop ceiling any single core imposes; the
// threaded figure scales with cores (on a single-core host the two mostly
// measure mailbox/timer overhead vs. event-queue overhead).
//
// Convergence is asserted after each threaded run (Lemma 3.7 joint DAG) —
// a throughput number from a diverged run would be meaningless.
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
  std::uint64_t blocks;
  double wall_s;
  bool converged;
  double blocks_per_s() const { return wall_s > 0 ? static_cast<double>(blocks) / wall_s : 0; }
};

constexpr SimTime kBeat = sim_ms(1);  // dissemination interval, both runtimes

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
  cluster.quiesce();  // drain in-flight deliveries, like the threaded settle
  RunResult out{};
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (ServerId s : cluster.correct_servers()) {
    out.blocks += cluster.shim(s).gossip().stats().blocks_inserted;
  }
  out.converged = cluster.dags_converged();
  return out;
}

RunResult run_threaded(std::uint32_t n, SimTime wall_duration, std::uint32_t requests,
                       SimTime beat = kBeat) {
  brb::BrbFactory factory;
  rt::ThreadedConfig cfg;
  cfg.n_servers = n;
  cfg.seed = 42 + n;
  cfg.pacing.interval = beat;
  rt::ThreadedRuntime runtime(factory, cfg);
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
  return out;
}

// FAST-BEAT on the loopback backend: no sockets, so this exercises the
// in-process batching layers — the mailbox batch-drain (one condvar round
// per queue swap instead of per task) and gossip egress buffering (one
// mailbox push per destination per flush). Fast beats + a deep backlog
// keep every node thread busy, which is when wakeup overhead matters.
// Convergence asserted per leg; divergence fails the bench (exit 1).
bool sweep_fast_beat(BenchReport& report, SimTime duration) {
  constexpr SimTime kFastBeat = sim_us(200);
  const std::vector<std::uint32_t> ns =
      report.smoke() ? std::vector<std::uint32_t>{4}
                     : std::vector<std::uint32_t>{4, 8, 16};
  std::printf("\nFAST-BEAT (threads): dissemination at 200us beats\n");
  Table table({"n", "blocks", "blocks/s", "converged"});
  bool all_converged = true;
  for (std::uint32_t n : ns) {
    const std::uint32_t requests = 8 * n;
    const RunResult r = run_threaded(n, duration, requests, kFastBeat);
    all_converged = all_converged && r.converged;
    table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                   Table::num(r.blocks), Table::num(r.blocks_per_s(), 0),
                   r.converged ? "yes" : "NO"});
  }
  report.add("fast_beat", table);
  if (!all_converged) {
    std::printf("FAIL: a fast-beat leg diverged (Lemma 3.7 digest mismatch)\n");
  }
  return all_converged;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("bench_threaded", argc, argv);
  const SimTime duration = report.smoke() ? sim_ms(150) : sim_ms(600);
  const std::vector<std::uint32_t> ns =
      report.smoke() ? std::vector<std::uint32_t>{4, 8}
                     : std::vector<std::uint32_t>{4, 8, 16, 32};

  std::printf("RUNTIME-THREADS: aggregate blocks/s, sim vs threaded runtime\n");
  std::printf("(BRB, %llu ms run @1ms beats; %u hardware threads)\n\n",
              static_cast<unsigned long long>(duration / sim_ms(1)),
              std::thread::hardware_concurrency());

  Table table({"n", "runtime", "blocks", "wall s", "blocks/s", "converged"});
  for (std::uint32_t n : ns) {
    const std::uint32_t requests = 2 * n;
    const RunResult sim = run_sim(n, duration, requests);
    const RunResult thr = run_threaded(n, duration, requests);
    table.add_row({Table::num(static_cast<std::uint64_t>(n)), "sim",
                   Table::num(sim.blocks), Table::num(sim.wall_s, 3),
                   Table::num(sim.blocks_per_s(), 0), sim.converged ? "yes" : "NO"});
    table.add_row({Table::num(static_cast<std::uint64_t>(n)), "threads",
                   Table::num(thr.blocks), Table::num(thr.wall_s, 3),
                   Table::num(thr.blocks_per_s(), 0), thr.converged ? "yes" : "NO"});
  }
  report.add("throughput", table);
  const bool fast_beat_ok = sweep_fast_beat(report, duration);
  report.note("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  std::printf(
      "The sim row executes %llu ms of *virtual* time as fast as one core\n"
      "allows; the threads row spends that much real time with every server\n"
      "on its own thread. Equal configs, same protocol stack — the delta is\n"
      "pure runtime substrate. fast_beat loads the in-process batching\n"
      "layers (mailbox batch-drain, egress buffering) with no sockets in\n"
      "the way.\n",
      static_cast<unsigned long long>(duration / sim_ms(1)));
  const int rc = report.finish();
  return fast_beat_ok ? rc : 1;
}
