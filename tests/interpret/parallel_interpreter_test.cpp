// Differential oracle for the parallel interpretation engine
// (interpret/parallel_interpreter.h): sharding Algorithm 2 across a worker
// pool must be *observationally invisible*. For any DAG and any worker
// count, the engine must produce byte-identical digest_of() on every
// block, identical Ms[in]/Ms[out] buffers, the identical indication
// sequence (same tuples, same order), and identical WHAT-stats
// (requests/messages/clones) — only the HOW-counters (parallel_batches,
// work_units, ...) may differ from the serial interpreter.
//
// Covered here: honest random DAGs across seeds and worker counts 1/2/8,
// shard-claim-order independence (salted claim permutations), incremental
// batch-by-batch interpretation, the serial fallbacks (stopped pool, work
// below min_batch_work), equivocation forks in the parent chain, an
// adversarial byzantine-mix DAG grown by the sim cluster and re-interpreted
// offline, and the engine mounted on a live ThreadedRuntime.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "interpret/interpreter.h"
#include "interpret/parallel_interpreter.h"
#include "protocols/brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/cluster.h"
#include "testing/random_dag.h"

namespace blockdag {
namespace {

using testing::BlockForge;
using testing::RandomDagConfig;
using testing::make_random_dag;

// One indication as raised by Algorithm 2 line 14; the full tuple, so
// order *and* attribution are compared.
using Raised = std::tuple<Label, Bytes, ServerId>;

struct InterpretedRun {
  std::vector<Bytes> digests;  // digest_of per block, topological order
  std::vector<Raised> indications;
  InterpreterStats stats;
};

// Interprets `dag` start-to-finish with the serial interpreter.
InterpretedRun run_serial(const BlockDag& dag, const ProtocolFactory& factory,
                          std::uint32_t n_servers) {
  InterpretedRun out;
  Interpreter interp(dag, factory, n_servers);
  interp.set_indication_handler(
      [&out](Label label, const Bytes& ind, ServerId on_behalf) {
        out.indications.emplace_back(label, ind, on_behalf);
      });
  interp.run();
  for (const BlockPtr& b : dag.topological_order()) {
    out.digests.push_back(interp.digest_of(b->ref()));
  }
  out.stats = interp.stats();
  return out;
}

// Interprets `dag` start-to-finish through a parallel engine.
InterpretedRun run_parallel(const BlockDag& dag, const ProtocolFactory& factory,
                            std::uint32_t n_servers,
                            ParallelInterpretConfig config) {
  InterpretedRun out;
  ParallelInterpreter engine(config);
  engine.start();
  Interpreter interp(dag, factory, n_servers);
  interp.set_indication_handler(
      [&out](Label label, const Bytes& ind, ServerId on_behalf) {
        out.indications.emplace_back(label, ind, on_behalf);
      });
  engine.run(interp);
  for (const BlockPtr& b : dag.topological_order()) {
    out.digests.push_back(interp.digest_of(b->ref()));
  }
  out.stats = interp.stats();
  return out;
}

// The WHAT-half of the stats contract: everything except the parallel_*
// HOW-counters must match the serial run exactly.
void expect_same_effort(const InterpreterStats& a, const InterpreterStats& b) {
  EXPECT_EQ(a.blocks_interpreted, b.blocks_interpreted);
  EXPECT_EQ(a.requests_processed, b.requests_processed);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_materialized, b.messages_materialized);
  EXPECT_EQ(a.indications, b.indications);
  EXPECT_EQ(a.instance_clones, b.instance_clones);
}

TEST(ParallelInterpreter, DifferentialAcrossWorkerCounts) {
  brb::BrbFactory factory;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::uint32_t n = 3 + static_cast<std::uint32_t>(seed % 4);  // 3..6
    BlockForge forge(n);
    RandomDagConfig cfg;
    cfg.n_servers = n;
    cfg.rounds = 10;
    cfg.broadcasts = 6;
    const auto rd = make_random_dag(forge, cfg, seed);

    const InterpretedRun serial = run_serial(rd.dag, factory, n);
    ASSERT_EQ(serial.stats.blocks_interpreted, rd.dag.size());
    // Serial interpretation never touches the engine counters.
    EXPECT_EQ(serial.stats.parallel_batches, 0u);
    EXPECT_EQ(serial.stats.work_units, 0u);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      ParallelInterpretConfig pcfg;
      pcfg.workers = workers;
      pcfg.min_batch_work = 0;  // force the parallel path for every batch
      const InterpretedRun par = run_parallel(rd.dag, factory, n, pcfg);
      EXPECT_EQ(par.digests, serial.digests)
          << "seed=" << seed << " workers=" << workers;
      EXPECT_EQ(par.indications, serial.indications)
          << "seed=" << seed << " workers=" << workers;
      expect_same_effort(par.stats, serial.stats);
      EXPECT_EQ(par.stats.parallel_batches, 1u);
      EXPECT_EQ(par.stats.serial_batches, 0u);
      EXPECT_GT(par.stats.work_units, 0u);
      EXPECT_GE(par.stats.work_units, par.stats.max_shard_width);
    }
  }
}

TEST(ParallelInterpreter, BuffersMatchSerialExactly) {
  brb::BrbFactory factory;
  BlockForge forge(5);
  RandomDagConfig cfg;
  cfg.n_servers = 5;
  cfg.rounds = 8;
  cfg.broadcasts = 5;
  const auto rd = make_random_dag(forge, cfg, 42);

  Interpreter serial(rd.dag, factory, 5);
  serial.run();

  ParallelInterpretConfig pcfg;
  pcfg.workers = 4;
  pcfg.min_batch_work = 0;
  ParallelInterpreter engine(pcfg);
  engine.start();
  Interpreter parallel(rd.dag, factory, 5);
  engine.run(parallel);

  // Digest agreement could in principle hide a collision; compare the
  // buffers structurally too (the lemma42 test's discipline).
  for (const BlockPtr& b : rd.dag.topological_order()) {
    const auto* s = serial.state_of(b->ref());
    const auto* p = parallel.state_of(b->ref());
    ASSERT_NE(s, nullptr);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(s->ms_in == p->ms_in) << b->ref().short_hex();
    EXPECT_TRUE(s->ms_out == p->ms_out) << b->ref().short_hex();
    ASSERT_EQ(s->pis.size(), p->pis.size());
    for (std::size_t i = 0; i < s->pis.size(); ++i) {
      EXPECT_EQ((s->pis.begin() + i)->first, (p->pis.begin() + i)->first);
      EXPECT_EQ((s->pis.begin() + i)->second->state_digest(),
                (p->pis.begin() + i)->second->state_digest());
    }
  }
}

TEST(ParallelInterpreter, ShardClaimOrderIsIrrelevant) {
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.broadcasts = 6;
  cfg.rounds = 9;
  const auto rd = make_random_dag(forge, cfg, 7);

  const InterpretedRun serial = run_serial(rd.dag, factory, 4);
  for (const std::uint64_t salt : {0ull, 1ull, 0xdecafbadull, ~0ull}) {
    ParallelInterpretConfig pcfg;
    pcfg.workers = 3;
    pcfg.min_batch_work = 0;
    pcfg.shards_per_thread = 3;
    pcfg.shard_order_salt = salt;  // permutes which shard is claimed first
    const InterpretedRun par = run_parallel(rd.dag, factory, 4, pcfg);
    EXPECT_EQ(par.digests, serial.digests) << "salt=" << salt;
    EXPECT_EQ(par.indications, serial.indications) << "salt=" << salt;
  }
}

TEST(ParallelInterpreter, IncrementalBatchesMatchOneShot) {
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.broadcasts = 6;
  const auto rd = make_random_dag(forge, cfg, 11);
  const InterpretedRun serial = run_serial(rd.dag, factory, 4);

  // Re-grow the DAG chunk by chunk, running the engine at every step —
  // the live deployment's shape (gossip inserts, then interpretation runs).
  ParallelInterpretConfig pcfg;
  pcfg.workers = 2;
  pcfg.min_batch_work = 0;
  ParallelInterpreter engine(pcfg);
  engine.start();
  BlockDag growing;
  Interpreter interp(growing, factory, 4);
  std::vector<Raised> indications;
  interp.set_indication_handler(
      [&indications](Label label, const Bytes& ind, ServerId on_behalf) {
        indications.emplace_back(label, ind, on_behalf);
      });
  const auto& order = rd.dag.topological_order();
  std::size_t batches = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    growing.insert(order[i]);
    if (i % 3 == 2 || i + 1 == order.size()) {
      engine.run(interp);
      ++batches;
    }
  }
  EXPECT_EQ(interp.stats().blocks_interpreted, rd.dag.size());
  EXPECT_EQ(interp.stats().parallel_batches + interp.stats().serial_batches,
            batches);
  std::vector<Bytes> digests;
  for (const BlockPtr& b : rd.dag.topological_order()) {
    digests.push_back(interp.digest_of(b->ref()));
  }
  EXPECT_EQ(digests, serial.digests);
  EXPECT_EQ(indications, serial.indications);
  expect_same_effort(interp.stats(), serial.stats);
}

TEST(ParallelInterpreter, ManyTinyBatchesOnOversubscribedPool) {
  // One-block batches on a pool with more threads than cores: a worker that
  // finishes a non-last shard is often preempted right after its completion
  // count, while the owner completes the batch, unpublishes it and reuses
  // its stack frame for the next one. finish_shard must not touch the batch
  // after counting itself done (the ThreadSanitizer loop in tools/ci.sh
  // exercises exactly this window).
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.rounds = 40;
  cfg.broadcasts = 8;
  const auto rd = make_random_dag(forge, cfg, 21);
  const InterpretedRun serial = run_serial(rd.dag, factory, 4);

  ParallelInterpretConfig pcfg;
  pcfg.workers = 16;
  pcfg.shards_per_thread = 1;
  pcfg.min_batch_work = 0;
  ParallelInterpreter engine(pcfg);
  engine.start();
  for (int round = 0; round < 4; ++round) {
    BlockDag growing;
    Interpreter interp(growing, factory, 4);
    std::vector<Raised> indications;
    interp.set_indication_handler(
        [&indications](Label label, const Bytes& ind, ServerId on_behalf) {
          indications.emplace_back(label, ind, on_behalf);
        });
    for (const BlockPtr& b : rd.dag.topological_order()) {
      growing.insert(b);
      engine.run(interp);
    }
    EXPECT_EQ(interp.stats().blocks_interpreted, rd.dag.size());
    EXPECT_EQ(interp.stats().parallel_batches, rd.dag.size());
    std::vector<Bytes> digests;
    for (const BlockPtr& b : rd.dag.topological_order()) {
      digests.push_back(interp.digest_of(b->ref()));
    }
    EXPECT_EQ(digests, serial.digests) << "round=" << round;
    EXPECT_EQ(indications, serial.indications) << "round=" << round;
  }
}

TEST(ParallelInterpreter, FallsBackToSerialBelowMinBatchWork) {
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.broadcasts = 3;
  const auto rd = make_random_dag(forge, cfg, 3);
  const InterpretedRun serial = run_serial(rd.dag, factory, 4);

  ParallelInterpretConfig pcfg;
  pcfg.workers = 2;
  pcfg.min_batch_work = 1u << 20;  // nothing clears this bar
  const InterpretedRun par = run_parallel(rd.dag, factory, 4, pcfg);
  EXPECT_EQ(par.digests, serial.digests);
  EXPECT_EQ(par.indications, serial.indications);
  EXPECT_EQ(par.stats.parallel_batches, 0u);
  EXPECT_EQ(par.stats.serial_batches, 1u);
  EXPECT_EQ(par.stats.work_units, 0u);
}

TEST(ParallelInterpreter, StoppedPoolDegradesToSerial) {
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.broadcasts = 4;
  const auto rd = make_random_dag(forge, cfg, 5);
  const InterpretedRun serial = run_serial(rd.dag, factory, 4);

  // Never start()ed: zero pool threads, every batch takes the serial path.
  ParallelInterpretConfig pcfg;
  pcfg.workers = 4;
  pcfg.min_batch_work = 0;
  InterpretedRun par;
  {
    ParallelInterpreter engine(pcfg);
    Interpreter interp(rd.dag, factory, 4);
    interp.set_indication_handler(
        [&par](Label label, const Bytes& ind, ServerId on_behalf) {
          par.indications.emplace_back(label, ind, on_behalf);
        });
    engine.run(interp);
    for (const BlockPtr& b : rd.dag.topological_order()) {
      par.digests.push_back(interp.digest_of(b->ref()));
    }
    par.stats = interp.stats();
  }
  EXPECT_EQ(par.digests, serial.digests);
  EXPECT_EQ(par.indications, serial.indications);
  EXPECT_EQ(par.stats.parallel_batches, 0u);
  EXPECT_EQ(par.stats.serial_batches, 1u);
}

TEST(ParallelInterpreter, EquivocationForksInParentChain) {
  // Equivocating builder: two distinct blocks at (server 0, k=1), both
  // children of b0 and both referenced by server 1 — the engine's
  // inherited-state walk must resolve parents exactly as the serial
  // interpreter does, forks included.
  brb::BrbFactory factory;
  BlockForge forge(2);
  const BlockPtr b0 =
      forge.block(0, 0, {}, {{1, brb::make_broadcast(Bytes{7})}});
  const BlockPtr fork_a = forge.block(0, 1, {b0->ref()});
  const BlockPtr fork_b =
      forge.block(0, 1, {b0->ref()}, {{2, brb::make_broadcast(Bytes{9})}});
  ASSERT_NE(fork_a->ref(), fork_b->ref());
  const BlockPtr c = forge.block(1, 0, {fork_a->ref(), fork_b->ref()});
  const BlockPtr d = forge.block(0, 2, {fork_a->ref(), c->ref()});

  BlockDag dag;
  for (const BlockPtr& b : {b0, fork_a, fork_b, c, d}) {
    ASSERT_TRUE(dag.insert(b));
  }

  const InterpretedRun serial = run_serial(dag, factory, 2);
  ParallelInterpretConfig pcfg;
  pcfg.workers = 2;
  pcfg.min_batch_work = 0;
  const InterpretedRun par = run_parallel(dag, factory, 2, pcfg);
  EXPECT_EQ(par.digests, serial.digests);
  EXPECT_EQ(par.indications, serial.indications);
  expect_same_effort(par.stats, serial.stats);
}

TEST(ParallelInterpreter, ByzantineClusterDagOffline) {
  // An adversarial DAG grown by the deterministic cluster (equivocator +
  // duplicate-referencer in the mix), then re-interpreted offline: the
  // engine must agree with the serial interpreter on hostile shapes too.
  brb::BrbFactory factory;
  ClusterConfig cfg;
  cfg.n_servers = 5;
  cfg.seed = 1234;
  cfg.byzantine[3] = ByzantineKind::kEquivocator;
  cfg.byzantine[4] = ByzantineKind::kDuplicateReferencer;
  Cluster cluster(factory, cfg);
  cluster.start();
  for (std::uint32_t i = 0; i < 6; ++i) {
    cluster.request(i % 3, 1 + i, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  cluster.run_for(sim_ms(400));
  cluster.stop();

  const BlockDag& dag = cluster.shim(0).dag();
  ASSERT_GT(dag.size(), 0u);
  const InterpretedRun serial = run_serial(dag, factory, 5);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    ParallelInterpretConfig pcfg;
    pcfg.workers = workers;
    pcfg.min_batch_work = 0;
    const InterpretedRun par = run_parallel(dag, factory, 5, pcfg);
    EXPECT_EQ(par.digests, serial.digests) << "workers=" << workers;
    EXPECT_EQ(par.indications, serial.indications) << "workers=" << workers;
    expect_same_effort(par.stats, serial.stats);
  }
}

TEST(ParallelInterpreter, EngineOnThreadedRuntimeConverges) {
  // End-to-end: the engine mounted by ThreadedRuntime (forced on with two
  // workers and a zero fan-out bar), live traffic, then the standard
  // Lemma 3.7 / 4.2 convergence check plus proof the parallel path ran.
  brb::BrbFactory factory;
  rt::ThreadedConfig cfg;
  cfg.n_servers = 4;
  cfg.pacing.interval = sim_ms(2);
  cfg.interpret_workers = 2;
  cfg.interpret.min_batch_work = 0;
  rt::ThreadedRuntime runtime(factory, cfg);
  ASSERT_EQ(runtime.interpret_workers(), 2u);
  runtime.start();
  for (std::uint32_t i = 0; i < 8; ++i) {
    runtime.request(i % 4, 1 + i,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  ASSERT_TRUE(runtime.quiesce_and_converge());
  const Bytes interp0 = runtime.interpretation_digest(0);
  const Bytes dag0 = runtime.dag_digest(0);
  for (ServerId s = 1; s < 4; ++s) {
    EXPECT_EQ(runtime.dag_digest(s), dag0);
    EXPECT_EQ(runtime.interpretation_digest(s), interp0);
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(runtime.indicated_count(1 + i), 4u);
  }
  const InterpreterStats stats = runtime.interpreter_stats();
  EXPECT_GT(stats.parallel_batches, 0u);
  EXPECT_GT(stats.work_units, 0u);
  runtime.shutdown();
}

}  // namespace
}  // namespace blockdag
