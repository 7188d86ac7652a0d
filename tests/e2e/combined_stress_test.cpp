// Combined adversity: everything at once. Real deployments do not get to
// face one fault at a time; these runs combine byzantine servers, loss,
// partitions, WOTS signatures, mixed protocols and pre-GST chaos.
#include <gtest/gtest.h>

#include "protocol/mux.h"
#include "protocols/brb.h"
#include "protocols/coin_beacon.h"
#include "protocols/fifo_brb.h"
#include "protocols/pbft_lite.h"
#include "runtime/checkers.h"
#include "runtime/cluster.h"

namespace blockdag {
namespace {

Bytes val(std::uint8_t v) { return Bytes{v}; }

TEST(CombinedStress, ByzantineAndLossAndWots) {
  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = 101;
  cfg.sig_scheme = SigScheme::kWots;
  cfg.pacing.interval = sim_ms(20);
  cfg.net.drop_probability = 0.15;
  cfg.net.max_drops_per_pair = 10;
  cfg.byzantine[3] = ByzantineKind::kEquivocator;
  brb::BrbFactory factory;
  Cluster cluster(factory, cfg);
  BrbChecker checker;
  cluster.start();
  for (ServerId s = 0; s < 3; ++s) {
    checker.expect_broadcast(1 + s, s, brb::make_broadcast(val(s + 1)), true);
    cluster.request(s, 1 + s, brb::make_broadcast(val(s + 1)));
  }
  cluster.run_for(sim_sec(4));
  for (ServerId s = 0; s < 3; ++s) {
    for (const UserIndication& ind : cluster.shim(s).indications()) {
      checker.record_delivery(s, ind.label,
                              brb::make_broadcast(*brb::parse_deliver(ind.indication)));
    }
  }
  const auto violations = checker.violations(cluster.correct_servers(), true);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(CombinedStress, PartitionPlusByzantineFlooder) {
  ClusterConfig cfg;
  cfg.n_servers = 7;
  cfg.seed = 103;
  cfg.pacing.interval = sim_ms(10);
  cfg.byzantine[6] = ByzantineKind::kFlooder;
  brb::BrbFactory factory;
  Cluster cluster(factory, cfg);
  cluster.start();
  // The flooder goes into side B — a server outside both sides would
  // bridge the cut and legitimately restore liveness early.
  cluster.network().partition({0, 1, 2}, {3, 4, 5, 6}, sim_ms(800));
  cluster.request(0, 1, brb::make_broadcast(val(5)));
  cluster.run_for(sim_ms(700));
  // 2f+1 = 5 > 3 reachable servers in side A — no quorum mid-cut.
  EXPECT_LT(cluster.indicated_count(1), 6u);
  cluster.run_for(sim_sec(3));
  EXPECT_EQ(cluster.indicated_count(1), 6u);
}

TEST(CombinedStress, MixedProtocolsUnderEquivocation) {
  brb::BrbFactory brb_factory;
  pbft::PbftFactory pbft_factory;
  fifo::FifoBrbFactory fifo_factory;
  beacon::BeaconFactory beacon_factory;
  ProtocolMux mux;
  mux.mount(1, 9, brb_factory);
  mux.mount(10, 19, pbft_factory);
  mux.mount(20, 29, fifo_factory);
  mux.mount(30, 39, beacon_factory);

  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = 107;
  cfg.pacing.interval = sim_ms(10);
  cfg.byzantine[2] = ByzantineKind::kEquivocator;
  Cluster cluster(mux, cfg);
  cluster.start();

  cluster.request(0, 1, brb::make_broadcast(val(1)));
  cluster.request(0, 10, pbft::make_propose(val(2)));
  cluster.request(1, 20, fifo::make_broadcast(val(3)));
  cluster.request(1, 20, fifo::make_broadcast(val(4)));
  cluster.request(0, 30, beacon::make_contribute(0x1111));
  cluster.request(3, 30, beacon::make_contribute(0x2222));
  cluster.run_for(sim_sec(3));

  EXPECT_EQ(cluster.indicated_count(1), 3u);
  EXPECT_EQ(cluster.indicated_count(10), 3u);
  EXPECT_EQ(cluster.indicated_count(20), 3u);
  EXPECT_EQ(cluster.indicated_count(30), 3u);

  // FIFO stream stayed ordered at every correct server.
  for (ServerId s : cluster.correct_servers()) {
    std::vector<std::uint64_t> seqs;
    for (const UserIndication& ind : cluster.shim(s).indications()) {
      if (ind.label != 20) continue;
      seqs.push_back(fifo::parse_deliver(ind.indication)->seq);
    }
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1}));
  }
}

TEST(CombinedStress, RecoveryUnderOngoingTraffic) {
  // Crash and restart a server while instances are in flight; it restores
  // from its block log, the cluster converges and the restarted server
  // still delivers everything.
  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = 109;
  cfg.pacing.interval = sim_ms(10);
  brb::BrbFactory factory;
  Cluster cluster(factory, cfg);
  cluster.start();
  for (Label l = 1; l <= 12; ++l) {
    cluster.request(l % 4, l, brb::make_broadcast(val(static_cast<std::uint8_t>(l))));
  }
  cluster.run_for(sim_ms(200));
  cluster.crash(0);
  ASSERT_TRUE(cluster.restart(0));
  EXPECT_GT(cluster.checkpointer(0).restore_stats().own_blocks_from_log, 0u);
  EXPECT_GT(cluster.checkpointer(0).restore_stats().recv_blocks_from_log, 0u);
  cluster.run_for(sim_sec(2));
  for (Label l = 1; l <= 12; ++l) {
    EXPECT_EQ(cluster.indicated_count(l), 4u) << "label " << l;
  }
}

TEST(CombinedStress, SixteenServersHighLoad) {
  ClusterConfig cfg;
  cfg.n_servers = 16;  // f = 5
  cfg.seed = 113;
  cfg.pacing.interval = sim_ms(20);
  cfg.byzantine[13] = ByzantineKind::kSilent;
  cfg.byzantine[14] = ByzantineKind::kEquivocator;
  cfg.byzantine[15] = ByzantineKind::kGarbageSpammer;
  brb::BrbFactory factory;
  Cluster cluster(factory, cfg);
  cluster.start();
  for (Label l = 1; l <= 26; ++l) {
    cluster.request(l % 13, l, brb::make_broadcast(val(static_cast<std::uint8_t>(l))));
  }
  cluster.run_for(sim_sec(3));
  for (Label l = 1; l <= 26; ++l) {
    EXPECT_EQ(cluster.indicated_count(l), 13u) << "label " << l;
  }
}

}  // namespace
}  // namespace blockdag
