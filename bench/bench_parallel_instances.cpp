// CLAIM-PAR (DESIGN.md §4): "running many instances of protocols in
// parallel 'for free'" / "with every new block every server creates a new
// instance of P" (Sections 1, 4).
//
// marginal_cost — sweep the number K of parallel BRB instances on a fixed
// 4-server cluster and report the marginal cost of each additional
// instance: extra blocks (≈ 0 — instances share blocks), extra wire bytes
// (only the literal request inscriptions). The "e2e wall ms" column is the
// whole simulated run (gossip + pacing + interpretation) and is NOT an
// interpretation measurement; bench_interpret times Algorithm 2 alone.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "protocols/brb.h"
#include "runtime/bench_report.h"
#include "runtime/cluster.h"
#include "runtime/table.h"

namespace {

using namespace blockdag;

struct ParResult {
  std::uint64_t blocks;
  std::uint64_t wire_bytes;
  std::uint64_t materialized;
  double wall_ms;
  bool all_delivered;
};

// Grows a DAG by running K BRB instances to delivery on an n-server
// cluster.
std::unique_ptr<Cluster> grow(const brb::BrbFactory& factory, std::uint32_t n,
                              std::uint32_t k, bool* all_delivered) {
  ClusterConfig cfg;
  cfg.n_servers = n;
  cfg.seed = 7;
  cfg.pacing.interval = sim_ms(10);
  cfg.gossip.max_requests_per_block = 4096;
  auto cluster = std::make_unique<Cluster>(factory, cfg);
  cluster->start();
  for (std::uint32_t i = 0; i < k; ++i) {
    cluster->request(i % n, 1 + i,
                     brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  bool all = false;
  for (int step = 0; step < 200 && !all; ++step) {
    cluster->run_for(sim_ms(100));
    all = true;
    for (std::uint32_t i = 0; i < k && all; ++i) {
      all = cluster->indicated_count(1 + i) == n;
    }
  }
  cluster->stop();
  if (all_delivered != nullptr) *all_delivered = all;
  return cluster;
}

ParResult run_marginal(const brb::BrbFactory& factory, std::uint32_t k) {
  const auto wall_start = std::chrono::steady_clock::now();
  bool all = false;
  auto cluster = grow(factory, 4, k, &all);
  const auto wall_end = std::chrono::steady_clock::now();

  ParResult r{};
  r.blocks = cluster->shim(0).dag().size();
  r.wire_bytes = cluster->network().metrics().total_bytes();
  r.materialized = cluster->shim(0).interpreter().stats().messages_materialized;
  r.wall_ms = std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  r.all_delivered = all;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("bench_parallel_instances", argc, argv);
  brb::BrbFactory factory;

  std::printf("CLAIM-PAR: marginal cost of parallel instances (n=4, BRB)\n\n");
  const std::vector<std::uint32_t> sweep =
      report.smoke() ? std::vector<std::uint32_t>{1, 16, 64}
                     : std::vector<std::uint32_t>{1, 4, 16, 64, 256, 1024, 4096};
  Table table({"K", "blocks", "wire KB", "KB/instance", "materialized msgs",
               "e2e wall ms", "all delivered"});
  for (std::uint32_t k : sweep) {
    const ParResult r = run_marginal(factory, k);
    table.add_row({Table::num(static_cast<std::uint64_t>(k)), Table::num(r.blocks),
                   Table::num(static_cast<double>(r.wire_bytes) / 1e3, 1),
                   Table::num(static_cast<double>(r.wire_bytes) / 1e3 / k, 3),
                   Table::num(r.materialized), Table::num(r.wall_ms, 1),
                   r.all_delivered ? "yes" : "NO"});
  }
  report.add("marginal_cost", table);
  std::printf(
      "Expected shape (paper §1/§4): block count stays ~flat in K (instances\n"
      "ride existing blocks), KB/instance falls toward the bare request size,\n"
      "materialized messages grow ~linearly in K — parallel instances are\n"
      "'for free' on the wire, paid only in local interpretation.\n");
  return report.finish();
}
