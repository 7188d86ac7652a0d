// Crash-recovery tests (§7 Limitations): a server logs every block it
// inserts, crashes, restarts from that block log through
// sync::Checkpointer::restore_from_storage, and rejoins without ever
// violating the reference-once discipline — its interpretation state is
// recomputed from the DAG rather than persisted. This is the one recovery
// path: the simulated Cluster and rt::ThreadedRuntime restart the same way.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "crypto/signature.h"
#include "protocols/brb.h"
#include "runtime/cluster.h"
#include "sync/checkpointer.h"
#include "sync/storage.h"

namespace blockdag {
namespace {

// Four shims over one simulated network, each logging to its own MemStore
// through a default Checkpointer (epoch_blocks = 0: a block log only).
// Rounds are ticked by hand.
struct RecoveryRig {
  Scheduler sched;
  IdealSignatureProvider sigs{4, 1};
  SimNetwork net{sched, 4, {}};
  brb::BrbFactory factory;
  std::array<sync::MemStore, 4> stores;
  std::vector<std::unique_ptr<Shim>> shims{4};
  std::vector<std::unique_ptr<sync::Checkpointer>> checkpointers{4};
  // Crashed incarnations stay alive: in-flight events still point at them.
  std::vector<std::unique_ptr<Shim>> crashed;
  std::vector<std::unique_ptr<sync::Checkpointer>> retired;

  RecoveryRig() {
    for (ServerId s = 0; s < 4; ++s) mount(s);
  }

  void mount(ServerId s) {
    shims[s] = std::make_unique<Shim>(s, sched, net, sigs, factory, 4);
    checkpointers[s] = std::make_unique<sync::Checkpointer>(*shims[s], sigs, 4,
                                                            &stores[s]);
  }

  void round() {
    for (auto& shim : shims) shim->tick();
    sched.run();
  }

  // Crashes server s and restarts a fresh incarnation from its block log,
  // with `handler` installed before the restore runs. The restore must
  // succeed and must really come from the log: own and received blocks.
  const sync::RestoreStats& restart(ServerId s,
                                    Shim::IndicationHandler handler = {}) {
    shims[s]->halt();
    crashed.push_back(std::move(shims[s]));
    retired.push_back(std::move(checkpointers[s]));
    mount(s);  // the Shim constructor re-attaches the network handler
    if (handler) shims[s]->set_indication_handler(std::move(handler));
    EXPECT_TRUE(checkpointers[s]->restore_from_storage());
    const sync::RestoreStats& stats = checkpointers[s]->restore_stats();
    EXPECT_TRUE(stats.restored);
    EXPECT_GT(stats.own_blocks_from_log, 0u);
    EXPECT_GT(stats.recv_blocks_from_log, 0u);
    EXPECT_FALSE(shims[s]->restoring());
    return stats;
  }
};

TEST(Recovery, LogRoundTripsDagAndConstructionState) {
  RecoveryRig rig;
  rig.shims[0]->request(1, brb::make_broadcast(Bytes{5}));
  rig.round();
  rig.round();
  const GossipServer& before = rig.shims[0]->gossip();
  const std::size_t dag_size = before.dag().size();
  const SeqNo next_seq = before.next_seq();
  const std::vector<Hash256> building = before.building_preds();

  const sync::RestoreStats& stats = rig.restart(0);
  const GossipServer& after = rig.shims[0]->gossip();
  EXPECT_EQ(stats.own_blocks_from_log + stats.recv_blocks_from_log, dag_size);
  EXPECT_EQ(after.dag().size(), dag_size);
  EXPECT_TRUE(rig.crashed[0]->dag().subgraph_of(after.dag()));
  EXPECT_EQ(after.next_seq(), next_seq);
  EXPECT_EQ(after.building_preds(), building);
}

TEST(Recovery, RecoveredServerNeverDoubleReferences) {
  RecoveryRig rig;
  rig.shims[0]->request(1, brb::make_broadcast(Bytes{7}));
  rig.round();
  rig.round();

  // Crash server 0 after it has referenced everyone's blocks; restart it
  // from its log and keep gossiping.
  rig.restart(0);
  rig.round();
  rig.round();

  // Reference-once discipline held across the crash (Lemma A.6): count
  // references per block across server 0's own blocks.
  std::map<Hash256, int> ref_count;
  for (const BlockPtr& b : rig.shims[1]->dag().topological_order()) {
    if (b->n() != 0) continue;
    for (const Hash256& p : b->preds()) ++ref_count[p];
  }
  for (const auto& [ref, count] : ref_count) {
    (void)ref;
    EXPECT_EQ(count, 1);
  }
  // And the cluster converged.
  for (ServerId s = 1; s < 4; ++s) {
    EXPECT_TRUE(rig.shims[0]->dag().subgraph_of(rig.shims[s]->dag()));
    EXPECT_EQ(rig.shims[0]->dag().size(), rig.shims[s]->dag().size());
  }
}

TEST(Recovery, SequenceNumbersContinueAfterRecovery) {
  RecoveryRig rig;
  rig.round();  // k=0 blocks
  rig.round();  // k=1 blocks
  rig.restart(0);
  rig.round();  // recovered server must emit k=2, not restart at 0

  SeqNo max_k = 0;
  for (const BlockPtr& b : rig.shims[1]->dag().topological_order()) {
    if (b->n() == 0) max_k = std::max(max_k, b->k());
  }
  EXPECT_EQ(max_k, 2u);
  // No equivocation was created by the recovery.
  std::map<std::pair<ServerId, SeqNo>, int> slots;
  for (const BlockPtr& b : rig.shims[1]->dag().topological_order()) {
    ++slots[{b->n(), b->k()}];
  }
  for (const auto& [slot, count] : slots) {
    (void)slot;
    EXPECT_EQ(count, 1);
  }
}

TEST(Recovery, InterpretationIsRecomputedNotPersisted) {
  RecoveryRig rig;
  rig.shims[2]->request(9, brb::make_broadcast(Bytes{3}));
  for (int r = 0; r < 4; ++r) rig.round();

  // Interpretation before the crash.
  std::map<Hash256, Bytes> before;
  for (const BlockPtr& b : rig.shims[0]->dag().topological_order()) {
    before[b->ref()] = rig.shims[0]->interpreter().digest_of(b->ref());
  }

  rig.restart(0);
  const Shim& restored = *rig.shims[0];
  // The log holds blocks, not states: every block was interpreted anew.
  EXPECT_EQ(restored.interpreter().stats().blocks_interpreted, before.size());
  EXPECT_GT(restored.interpreter().stats().messages_materialized, 0u);
  ASSERT_EQ(restored.dag().size(), before.size());
  for (const auto& [ref, digest] : before) {
    EXPECT_EQ(restored.interpreter().digest_of(ref), digest);
  }
}

TEST(Recovery, ShimCrashRecoverMidRunMatchesNeverCrashedPeers) {
  // The full crash-recovery edge through the Cluster: a server crashes mid-
  // run, the cluster keeps making progress without it, it restarts from
  // its block log and must (a) rebuild exactly the pre-crash indication
  // log — nothing lost, nothing re-delivered — and (b) end the run with
  // digest_of identical to never-crashed peers for every block (Lemma 4.2
  // across the crash).
  brb::BrbFactory factory;
  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = 21;
  cfg.pacing.interval = sim_ms(10);
  Cluster cluster(factory, cfg);
  cluster.start();
  cluster.request(0, 100, brb::make_broadcast(Bytes{1}));
  cluster.run_for(sim_ms(300));

  const std::vector<UserIndication> pre_log = cluster.shim(2).indications();
  ASSERT_FALSE(pre_log.empty());  // label 100 was delivered before the crash
  cluster.crash(2);
  EXPECT_FALSE(cluster.is_correct(2));
  EXPECT_EQ(cluster.n_correct(), 3u);

  // Progress while server 2 is down: a broadcast it never hears directly.
  cluster.request(1, 101, brb::make_broadcast(Bytes{2}));
  cluster.run_for(sim_ms(300));

  ASSERT_TRUE(cluster.restart(2));
  EXPECT_TRUE(cluster.is_correct(2));
  const sync::RestoreStats& stats = cluster.checkpointer(2).restore_stats();
  EXPECT_TRUE(stats.restored);
  EXPECT_GT(stats.own_blocks_from_log, 0u);
  EXPECT_GT(stats.recv_blocks_from_log, 0u);
  // (a) The restored incarnation rebuilt exactly the pre-crash log from the
  // persisted DAG (interpretation — hence indications — is a pure function
  // of it).
  const std::vector<UserIndication>& restored = cluster.shim(2).indications();
  ASSERT_EQ(restored.size(), pre_log.size());
  for (std::size_t i = 0; i < pre_log.size(); ++i) {
    EXPECT_EQ(restored[i].label, pre_log[i].label);
    EXPECT_EQ(restored[i].indication, pre_log[i].indication);
  }

  cluster.run_for(sim_ms(400));
  ASSERT_TRUE(cluster.quiesce_and_converge());

  // (b) Identical interpretation digests everywhere, including the blocks
  // built while server 2 was down (recovered through gossip FWD).
  const Shim& witness = cluster.shim(0);
  for (const BlockPtr& b : witness.dag().topological_order()) {
    ASSERT_TRUE(cluster.shim(2).interpreter().is_interpreted(b->ref()));
    EXPECT_EQ(cluster.shim(2).interpreter().digest_of(b->ref()),
              witness.interpreter().digest_of(b->ref()));
  }
  // The while-down broadcast reached the recovered server exactly once.
  std::size_t label_101 = 0;
  for (const UserIndication& ind : cluster.shim(2).indications()) {
    if (ind.label == 101) ++label_101;
  }
  EXPECT_EQ(label_101, 1u);
  EXPECT_EQ(cluster.indicated_count(100), 4u);
  EXPECT_EQ(cluster.indicated_count(101), 4u);
}

TEST(Recovery, RestoreReplayDoesNotRefireExternalIndicationHandler) {
  // Re-raising replayed indications to the user would manufacture
  // duplicate deliveries across a crash (the pre-crash incarnation already
  // surfaced them) — the external handler must stay silent during restore
  // while indications() is rebuilt.
  RecoveryRig rig;
  rig.shims[0]->request(100, brb::make_broadcast(Bytes{7}));
  for (int r = 0; r < 4; ++r) rig.round();
  const std::size_t pre_count = rig.shims[3]->indications().size();
  ASSERT_GT(pre_count, 0u);

  int fired = 0;
  rig.restart(3, [&](Label, const Bytes&) { ++fired; });
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(rig.shims[3]->indications().size(), pre_count);
}

}  // namespace
}  // namespace blockdag
