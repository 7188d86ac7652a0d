// Epoch checkpoints (src/sync/checkpoint*): build → sign → encode →
// decode → restore round-trips over real cluster state, plus the
// Checkpointer's epoch cadence over a storage sink.
//
// The oracle throughout is Lemma 4.2 as implemented by
// Interpreter::digest_of: a restored server must produce byte-identical
// per-block digests (and hence identical dag/interpretation digests) to
// the server it checkpointed from — restore is indistinguishable from
// having lived through the history.
#include "sync/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <variant>

#include "gossip/wire.h"
#include "protocols/brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/cluster.h"
#include "crypto/sha256.h"
#include "sim/scheduler.h"
#include "sync/checkpointer.h"
#include "sync/storage.h"
#include "util/hex.h"

namespace blockdag {
namespace {

ClusterConfig quick_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = seed;
  cfg.pacing.interval = sim_ms(10);
  return cfg;
}

// Runs a BRB cluster to a stable point with a few broadcasts. quiesce()
// rather than quiesce_and_converge(): some tests mount a Checkpointer on
// shim(0) only, whose epoch GC makes that server's live set a strict
// subset of its peers' — cross-server live-set convergence is then the
// wrong invariant (the threaded runtime forces GC on every server before
// comparing; here we only ever compare a shim against its restored copy).
void drive_traffic(Cluster& cluster, std::uint32_t broadcasts) {
  cluster.start();
  for (std::uint32_t i = 0; i < broadcasts; ++i) {
    cluster.request(i % cluster.config().n_servers, 1 + i,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
    cluster.run_for(sim_ms(40));
  }
  cluster.quiesce();
}

void expect_same_state(Shim& restored, const Shim& original) {
  EXPECT_EQ(rt::dag_digest(restored.dag()), rt::dag_digest(original.dag()));
  EXPECT_EQ(rt::interpretation_digest(restored.interpreter(), restored.dag()),
            rt::interpretation_digest(original.interpreter(), original.dag()));
  // Per-block digest_of must be byte-identical — cached digests from the
  // checkpoint and live-computed digests agree (the lemma42 regression
  // invariant: the representation changed, the bytes did not).
  for (const BlockPtr& block : original.dag().topological_order()) {
    EXPECT_EQ(restored.interpreter().digest_of(block->ref()),
              original.interpreter().digest_of(block->ref()))
        << "digest_of mismatch";
  }
  // The indication log survives verbatim (order and payloads).
  ASSERT_EQ(restored.indications().size(), original.indications().size());
  for (std::size_t i = 0; i < original.indications().size(); ++i) {
    EXPECT_EQ(restored.indications()[i].label, original.indications()[i].label);
    EXPECT_EQ(restored.indications()[i].indication,
              original.indications()[i].indication);
  }
}

TEST(Checkpoint, BuildEncodeDecodeRoundTrip) {
  brb::BrbFactory factory;
  Cluster cluster(factory, quick_config(71));
  drive_traffic(cluster, 6);

  Shim& shim = cluster.shim(0);
  const auto cp = sync::build_checkpoint(shim, 1, 4);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->epoch, 1u);
  EXPECT_EQ(cp->self, ServerId{0});
  EXPECT_EQ(cp->n_servers, 4u);
  EXPECT_GT(cp->blocks.size(), 0u);
  EXPECT_EQ(cp->records.size(), cp->blocks.size());
  EXPECT_GT(cp->indications.size(), 0u);
  EXPECT_TRUE(cp->horizon.empty()) << "nothing was pruned yet";

  const Bytes wire = sync::encode_signed_checkpoint(*cp, cluster.signatures());
  // Deterministic encoding: same state, same bytes (restore resumability
  // and the state-sync manifest hash both rely on this).
  EXPECT_EQ(wire, sync::encode_signed_checkpoint(*cp, cluster.signatures()));

  const auto back =
      sync::decode_signed_checkpoint(wire, &cluster.signatures(), 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, cp->epoch);
  EXPECT_EQ(back->self, cp->self);
  EXPECT_EQ(back->n_servers, cp->n_servers);
  EXPECT_EQ(back->next_k, cp->next_k);
  EXPECT_EQ(back->building_preds, cp->building_preds);
  EXPECT_EQ(back->horizon, cp->horizon);
  EXPECT_EQ(back->blocks, cp->blocks);
  ASSERT_EQ(back->records.size(), cp->records.size());
  for (std::size_t i = 0; i < cp->records.size(); ++i) {
    EXPECT_EQ(back->records[i].digest, cp->records[i].digest);
    EXPECT_EQ(back->records[i].ms_out, cp->records[i].ms_out);
    EXPECT_EQ(back->records[i].pis, cp->records[i].pis);
  }

  // The signature binds the checkpoint to its owner: verifying against a
  // different server's key refuses the file (a checkpoint swapped in from
  // another server's data dir must not restore).
  EXPECT_FALSE(
      sync::decode_signed_checkpoint(wire, &cluster.signatures(), 1).has_value());
}

TEST(Checkpoint, RestoreReproducesTheExactShimState) {
  brb::BrbFactory factory;
  Cluster cluster(factory, quick_config(73));
  drive_traffic(cluster, 6);
  Shim& original = cluster.shim(0);

  const auto cp = sync::build_checkpoint(original, 1, 4);
  ASSERT_TRUE(cp.has_value());

  // A fresh, never-started cluster with the same seed: same keys, empty
  // shims — the state a restarted process wakes up with.
  Cluster fresh(factory, quick_config(73));
  Shim& restored = fresh.shim(0);
  EXPECT_FALSE(sync::restore_checkpoint(restored, *cp))
      << "restore outside begin_restore() must be refused";
  restored.begin_restore();
  ASSERT_TRUE(sync::restore_checkpoint(restored, *cp));
  restored.end_restore();

  expect_same_state(restored, original);
  // Restored blocks were NOT re-interpreted: digest_of comes from the
  // checkpoint records, so the interpreter never ran over the history.
  EXPECT_EQ(restored.interpreter().stats().blocks_interpreted, 0u);
}

TEST(Checkpoint, RestoreAfterGcCarriesTheHorizon) {
  brb::BrbFactory factory;
  Cluster cluster(factory, quick_config(79));
  drive_traffic(cluster, 8);
  Shim& original = cluster.shim(0);
  const std::size_t pruned = original.collect_garbage();
  ASSERT_GT(pruned, 0u) << "test needs a non-trivial GC to exercise horizons";

  const auto cp = sync::build_checkpoint(original, 1, 4);
  ASSERT_TRUE(cp.has_value());
  EXPECT_GT(cp->horizon.size(), 0u)
      << "live blocks must reference pruned preds after GC";

  Cluster fresh(factory, quick_config(79));
  Shim& restored = fresh.shim(0);
  restored.begin_restore();
  ASSERT_TRUE(sync::restore_checkpoint(restored, *cp));
  restored.end_restore();
  expect_same_state(restored, original);
  // Horizon refs are tombstones: known (re-deliveries are dropped) but not
  // live (they carry no block).
  for (const Hash256& ref : cp->horizon) {
    EXPECT_TRUE(restored.dag().known(ref));
    EXPECT_FALSE(restored.dag().contains(ref));
  }
}

TEST(Checkpoint, SignedBytesAreFormatV2ByteForByte) {
  // Pinned from the one-step builder that preceded the snapshot/writer
  // split: the same state must still sign to the same bytes, through the
  // one-call encoder and through the three steps the epoch step takes.
  brb::BrbFactory factory;
  Cluster cluster(factory, quick_config(71));
  drive_traffic(cluster, 8);
  Shim& shim = cluster.shim(0);
  shim.collect_garbage();
  const auto cp = sync::build_checkpoint(shim, 3, 4);
  ASSERT_TRUE(cp.has_value());
  const Bytes wire = sync::encode_signed_checkpoint(*cp, cluster.signatures());
  EXPECT_EQ(sync::kCheckpointVersion, 2u);
  EXPECT_EQ(wire.size(), 3873u);
  EXPECT_EQ(to_hex(Sha256::digest(wire)),
            "3bb9a13ec7f3846350da1827c7df27145506e1ccfedecc39d4e2e4c60e00ac86");

  const auto snapshot = sync::snapshot_checkpoint(shim);
  ASSERT_TRUE(snapshot.has_value());
  const auto built = sync::build_checkpoint(*snapshot, 3, 4);
  ASSERT_TRUE(built.has_value());
  const Bytes preimage = sync::checkpoint_preimage(*built);
  EXPECT_EQ(sync::seal_checkpoint(preimage, cluster.signatures().sign(0, preimage)),
            wire);
}

TEST(Checkpoint, ASnapshotStaysExactWhileTheServerMovesOn) {
  // The writer builds from handles while the server keeps interpreting,
  // pruning and committing new B.PIs trees: what it builds must be the
  // state at the snapshot, not whatever the server holds by then.
  brb::BrbFactory factory;
  Cluster cluster(factory, quick_config(103));
  drive_traffic(cluster, 6);
  Shim& shim = cluster.shim(0);
  shim.collect_garbage();
  const auto snapshot = sync::snapshot_checkpoint(shim);
  ASSERT_TRUE(snapshot.has_value());
  const Bytes at_snapshot = sync::encode_signed_checkpoint(
      *sync::build_checkpoint(shim, 1, 4), cluster.signatures());

  cluster.start();
  for (std::uint32_t i = 0; i < 6; ++i) {
    cluster.request(i % 4, 50 + i,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i), 7}));
    cluster.run_for(sim_ms(40));
  }
  cluster.quiesce();
  ASSERT_GT(shim.collect_garbage(), 0u) << "the live set must have moved on";

  const auto built = sync::build_checkpoint(*snapshot, 1, 4);
  ASSERT_TRUE(built.has_value());
  EXPECT_EQ(sync::encode_signed_checkpoint(*built, cluster.signatures()),
            at_snapshot);
}

TEST(Checkpointer, EpochCadenceStoresAndRotates) {
  brb::BrbFactory factory;
  sync::MemStore store;
  Cluster cluster(factory, quick_config(83));
  sync::CheckpointerConfig ck;
  ck.epoch_blocks = 4;  // aggressive cadence: several epochs in one run
  sync::Checkpointer checkpointer(cluster.shim(0), cluster.signatures(), 4,
                                  &store, ck);
  ASSERT_TRUE(checkpointer.restore_from_storage());  // empty store: fresh
  EXPECT_FALSE(checkpointer.restore_stats().restored);

  drive_traffic(cluster, 10);

  const auto& stats = checkpointer.stats();
  EXPECT_GE(stats.checkpoints_stored, 2u);
  EXPECT_GT(stats.blocks_logged, 0u);
  EXPECT_EQ(stats.store_failures, 0u);
  EXPECT_EQ(checkpointer.epoch(), stats.checkpoints_stored);

  // The sink holds exactly the newest epoch (rotation) and its bytes are a
  // valid signed checkpoint for server 0.
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<sync::LogRecord> log;
  ASSERT_TRUE(store.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, checkpointer.epoch());
  const auto decoded =
      sync::decode_signed_checkpoint(ckpt, &cluster.signatures(), 0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch, epoch);

  // Epoch GC actually ran: pruning kept the shim's live set bounded.
  EXPECT_GT(cluster.shim(0).gossip().stats().blocks_pruned, 0u);
}

TEST(Checkpointer, RestoreFromStorageResumesWithoutFullReplay) {
  brb::BrbFactory factory;
  sync::MemStore store;
  Cluster cluster(factory, quick_config(89));
  sync::CheckpointerConfig ck;
  ck.epoch_blocks = 4;
  sync::Checkpointer checkpointer(cluster.shim(0), cluster.signatures(), 4,
                                  &store, ck);
  ASSERT_TRUE(checkpointer.restore_from_storage());
  drive_traffic(cluster, 10);
  ASSERT_GE(checkpointer.stats().checkpoints_stored, 1u);
  Shim& original = cluster.shim(0);

  // "Restart": a fresh shim over the same sink. The same seed gives the
  // fresh cluster the same key material, as a restarted process would load.
  Cluster fresh(factory, quick_config(89));
  Shim& restored = fresh.shim(0);
  sync::Checkpointer recovery(restored, fresh.signatures(), 4, &store, ck);
  ASSERT_TRUE(recovery.restore_from_storage());

  const auto& rs = recovery.restore_stats();
  EXPECT_TRUE(rs.restored);
  EXPECT_EQ(rs.checkpoint_epoch, checkpointer.epoch());
  EXPECT_GT(rs.blocks_from_checkpoint, 0u);
  EXPECT_EQ(rs.blocks_from_checkpoint + rs.own_blocks_from_log +
                rs.recv_blocks_from_log,
            original.dag().size());

  expect_same_state(restored, original);
  // The core durability claim: only the post-checkpoint log tail went
  // through the interpreter — checkpointed history was not re-interpreted.
  EXPECT_EQ(restored.interpreter().stats().blocks_interpreted,
            rs.own_blocks_from_log + rs.recv_blocks_from_log);
  EXPECT_LT(restored.interpreter().stats().blocks_interpreted,
            original.interpreter().stats().blocks_interpreted);

  // And the restored server can keep building: construction state (next_k,
  // building preds) came back, so its next block extends its own chain.
  EXPECT_EQ(restored.gossip().next_seq(), original.gossip().next_seq());
}

// Server 0's block log (no checkpoint) after some BRB traffic.
std::vector<sync::LogRecord> logged_history(std::uint64_t seed) {
  brb::BrbFactory factory;
  sync::MemStore store;
  Cluster cluster(factory, quick_config(seed));
  sync::Checkpointer checkpointer(cluster.shim(0), cluster.signatures(), 4,
                                  &store);
  drive_traffic(cluster, 4);
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<sync::LogRecord> log;
  EXPECT_TRUE(store.load_latest(epoch, ckpt, log));
  return log;
}

// A fresh server 0 restoring from `log` must refuse it, report nothing
// restored and leave its restore window (so the runtime discards it).
void expect_refused(std::uint64_t seed, const std::vector<sync::LogRecord>& log) {
  brb::BrbFactory factory;
  sync::MemStore store;
  for (const sync::LogRecord& record : log) {
    ASSERT_TRUE(store.append_block(record.kind, record.payload));
  }
  Cluster fresh(factory, quick_config(seed));
  Shim& shim = fresh.shim(0);
  sync::Checkpointer checkpointer(shim, fresh.signatures(), 4, &store);
  EXPECT_FALSE(checkpointer.restore_from_storage());
  EXPECT_FALSE(checkpointer.restore_stats().restored);
  EXPECT_FALSE(shim.restoring());
}

TEST(Checkpointer, RestoreRefusesALogRecordThatIsNotABlock) {
  // The record passed its storage CRC, yet its bytes are no block: refuse
  // rather than resume from a gap in the server's own chain.
  std::vector<sync::LogRecord> log = logged_history(97);
  ASSERT_GT(log.size(), 4u);
  log.insert(log.begin() + static_cast<std::ptrdiff_t>(log.size() / 2),
             sync::LogRecord{sync::LogKind::kRecvBlock, Bytes{1, 2, 3}});
  expect_refused(97, log);
}

TEST(Checkpointer, RestoreRefusesAnOwnBlockRecordBuiltByAnotherServer) {
  // A received block filed as our own (a log copied from another server's
  // data dir, or a flipped kind byte) would rebuild the construction state
  // from someone else's chain.
  std::vector<sync::LogRecord> log = logged_history(101);
  const auto received =
      std::find_if(log.begin(), log.end(), [](const sync::LogRecord& r) {
        return r.kind == sync::LogKind::kRecvBlock;
      });
  ASSERT_NE(received, log.end());
  received->kind = sync::LogKind::kOwnBlock;
  expect_refused(101, log);
}

// Keeps every payload a server hands its transport; delivers nothing.
class RecordingTransport final : public Transport {
 public:
  void attach(ServerId, Handler) override {}
  std::uint32_t size() const override { return 4; }
  void send(ServerId, ServerId, WireKind, Bytes payload) override {
    sent.push_back(std::move(payload));
  }
  void broadcast(ServerId, WireKind, const Bytes& payload) override {
    sent.push_back(payload);
  }
  WireMetrics wire_metrics() const override { return {}; }

  std::vector<Bytes> sent;
};

// A sink whose `fail_at`-th own-block append (1-based) fails, as on ENOSPC.
class FailingOwnAppend final : public sync::StorageSink {
 public:
  explicit FailingOwnAppend(std::uint64_t fail_at) : fail_at_(fail_at) {}
  bool store_checkpoint(std::uint64_t, const Bytes&) override { return true; }
  bool append_block(sync::LogKind kind, const Bytes&) override {
    return kind != sync::LogKind::kOwnBlock || ++own_appends_ != fail_at_;
  }
  bool load_latest(std::uint64_t&, Bytes&, std::vector<sync::LogRecord>&) override {
    return true;
  }

 private:
  std::uint64_t fail_at_;
  std::uint64_t own_appends_ = 0;
};

// Holds every writer job and continuation until the test runs it, so a
// test can stop an epoch step at any point between its two threads.
class ManualWriter final : public sync::CheckpointWriter {
 public:
  bool submit(std::function<void()> job) override {
    queue.push_back(std::move(job));
    return true;
  }
  bool post_back(std::function<void()> task) override {
    queue.push_back(std::move(task));
    return true;
  }
  // Runs queued work, oldest first, until `steps` ran or none is left.
  void run(std::size_t steps) {
    for (std::size_t i = 0; i < steps && !queue.empty(); ++i) {
      auto next = std::move(queue.front());
      queue.erase(queue.begin());
      next();
    }
  }
  std::vector<std::function<void()>> queue;
};

// Live DAG digest, interpretation digest, next_k and indications of a
// shim after GC: GC'd live sets compare equal whatever the prune cadence.
struct ServerState {
  Bytes dag;
  Bytes interpretation;
  SeqNo next_k = 0;
  std::vector<std::pair<Label, Bytes>> indications;
  bool operator==(const ServerState&) const = default;
};

ServerState state_after_gc(Shim& shim) {
  shim.collect_garbage();
  ServerState st;
  st.dag = rt::dag_digest(shim.dag());
  st.interpretation = rt::interpretation_digest(shim.interpreter(), shim.dag());
  st.next_k = shim.gossip().next_seq();
  for (const UserIndication& ind : shim.indications()) {
    st.indications.emplace_back(ind.label, ind.indication);
  }
  return st;
}

TEST(Checkpointer, AKillBetweenTheBoundaryAndTheStoreLosesNoBlock) {
  // Epoch 1 lands. Epoch 2's boundary is taken and the server keeps
  // inserting blocks into epoch 2's log while the writer works; then the
  // process dies before the store. The chain checkpoint 1 + logs 1, 2 must
  // give back exactly the pre-crash state, and the next boundary must not
  // reuse epoch 2.
  brb::BrbFactory factory;
  sync::MemStore store;
  Cluster cluster(factory, quick_config(107));
  ManualWriter writer;
  sync::CheckpointerConfig ck;
  ck.epoch_blocks = 6;
  sync::Checkpointer checkpointer(cluster.shim(0), cluster.signatures(), 4,
                                  &store, ck, &writer);
  cluster.start();
  Label label = 1;
  const auto traffic = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      cluster.request(label % 4, label,
                      brb::make_broadcast(Bytes{static_cast<std::uint8_t>(label)}));
      ++label;
      cluster.run_for(sim_ms(20));
    }
  };
  // Step 1 runs to completion; the queue is drained as it fills.
  while (checkpointer.epoch() == 0) {
    traffic(1);
    writer.run(writer.queue.size());
  }
  ASSERT_EQ(checkpointer.epoch(), 1u);
  // Step 2: taken, then starved of its writer.
  while (!checkpointer.step_in_flight()) traffic(1);
  traffic(4);
  EXPECT_GE(checkpointer.stats().checkpoints_skipped, 1u)
      << "boundaries reached while the writer is busy are deferred";
  writer.run(2);  // build, then sign: the store job is queued, never run
  ASSERT_EQ(writer.queue.size(), 1u);
  cluster.shim(0).halt();  // the kill: the queued store never runs
  const ServerState before = state_after_gc(cluster.shim(0));

  Cluster fresh(factory, quick_config(107));
  Shim& restored = fresh.shim(0);
  ManualWriter writer2;
  sync::Checkpointer recovery(restored, fresh.signatures(), 4, &store, ck,
                              &writer2);
  ASSERT_TRUE(recovery.restore_from_storage());
  EXPECT_EQ(recovery.restore_stats().checkpoint_epoch, 1u);
  EXPECT_EQ(state_after_gc(restored), before);

  // The next epoch step names epoch 3: epoch 2 already has a log. Manual
  // ticks build own blocks until the cadence takes a boundary.
  for (int i = 0; i < 20 && !recovery.step_in_flight(); ++i) restored.tick();
  ASSERT_TRUE(recovery.step_in_flight());
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<sync::LogRecord> log;
  ASSERT_TRUE(store.load_latest(epoch, ckpt, log));
  std::vector<std::uint64_t> boundaries;
  for (const sync::LogRecord& r : log) {
    if (r.kind == sync::LogKind::kEpochBoundary) {
      boundaries.push_back(*sync::decode_epoch_boundary(r.payload));
    }
  }
  // Log 1 opens with epoch 1's own boundary.
  EXPECT_EQ(boundaries, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Checkpointer, FailedOwnAppendFailStopsBeforeTheBlockIsSent) {
  // The K-th own block is built and inserted, but its log append fails. It
  // must never leave the server: a restart would replay the shorter log,
  // rebuild k = K-1 and sign a second block there (accidental equivocation).
  constexpr SeqNo kFailAt = 3;
  brb::BrbFactory factory;
  Scheduler timers;
  RecordingTransport net;
  const auto sigs = make_signature_provider(SigScheme::kIdeal, 4, 1);
  Shim shim(0, timers, net, *sigs, factory, 4);
  FailingOwnAppend sink(kFailAt);
  sync::Checkpointer checkpointer(shim, *sigs, 4, &sink);
  for (SeqNo i = 0; i < kFailAt + 2; ++i) shim.tick();

  EXPECT_TRUE(shim.gossip().halted());
  EXPECT_EQ(checkpointer.stats().store_failures, 1u);
  EXPECT_EQ(shim.gossip().next_seq(), kFailAt - 1);
  std::vector<SeqNo> sent_ks;
  for (const Bytes& wire : net.sent) {
    const auto msg = decode_wire(wire);
    ASSERT_TRUE(msg.has_value());
    const auto* env = std::get_if<BlockEnvelope>(&*msg);
    ASSERT_NE(env, nullptr);
    EXPECT_EQ(env->block.n(), 0u);
    sent_ks.push_back(env->block.k());
  }
  EXPECT_EQ(sent_ks, (std::vector<SeqNo>{0, 1}));
}

}  // namespace
}  // namespace blockdag
