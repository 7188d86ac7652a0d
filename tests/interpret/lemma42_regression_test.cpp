// Lemma 4.2 / Lemma A.11 regression: interpretation is a pure function of
// the DAG — the digest of every block's post-interpretation state must not
// depend on which eligible order the interpreter happened to pick. This is
// the semantic guard for the flattened hot path: run() (dense index order)
// and a shuffled interpret_one() walk over any other eligibility-
// respecting order must agree byte-for-byte on digest_of.
//
// The structures this pins down: persistent B.PIs shared down parent
// chains, flat Ms buffers keyed by dense BlockIdx, and the sort+unique inbox
// realization of the Ms[in] union semantics. Besides honest random DAGs,
// the inputs include hostile shapes: equivocation forks in a parent chain
// and a DAG grown by a cluster with byzantine builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "interpret/interpreter.h"
#include "protocols/brb.h"
#include "runtime/cluster.h"
#include "testing/random_dag.h"
#include "util/rng.h"

namespace blockdag {
namespace {

using testing::BlockForge;
using testing::RandomDagConfig;
using testing::make_random_dag;

// Interprets every block of `dag` in a random eligibility-respecting order.
void interpret_shuffled(Interpreter& interp, const BlockDag& dag, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Hash256> remaining;
  for (const BlockPtr& b : dag.topological_order()) remaining.push_back(b->ref());
  while (!remaining.empty()) {
    // Pick a random eligible block; one must exist (order_ is topological).
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (interp.eligible(remaining[i])) eligible.push_back(i);
    }
    ASSERT_FALSE(eligible.empty());
    const std::size_t pick = eligible[rng.below(eligible.size())];
    ASSERT_TRUE(interp.interpret_one(remaining[pick]));
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

// run() and a shuffled interpret_one() walk over `dag` must agree on every
// block's digest and buffers, and on the aggregate effort.
void expect_orders_agree(const BlockDag& dag, std::uint32_t n_servers,
                         std::uint64_t shuffle_seed, const std::string& what) {
  brb::BrbFactory factory;
  Interpreter sequential(dag, factory, n_servers);
  EXPECT_EQ(sequential.run(), dag.size()) << what;

  Interpreter shuffled(dag, factory, n_servers);
  interpret_shuffled(shuffled, dag, shuffle_seed);

  for (const BlockPtr& b : dag.topological_order()) {
    EXPECT_EQ(sequential.digest_of(b->ref()), shuffled.digest_of(b->ref()))
        << what << " block=" << b->ref().short_hex();
    // Buffer contents agree too, not just digests (rules out digest
    // collisions hiding order dependence).
    const auto* a = sequential.state_of(b->ref());
    const auto* s = shuffled.state_of(b->ref());
    ASSERT_NE(a, nullptr) << what;
    ASSERT_NE(s, nullptr) << what;
    EXPECT_TRUE(a->ms_in == s->ms_in) << what;
    EXPECT_TRUE(a->ms_out == s->ms_out) << what;
  }
  // Aggregate effort is order-independent as well.
  EXPECT_EQ(sequential.stats().messages_delivered, shuffled.stats().messages_delivered);
  EXPECT_EQ(sequential.stats().messages_materialized,
            shuffled.stats().messages_materialized);
  EXPECT_EQ(sequential.stats().requests_processed, shuffled.stats().requests_processed);
}

TEST(Lemma42Regression, RunAndShuffledOrdersAgreeOnEveryDigest) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    BlockForge forge(5);
    RandomDagConfig cfg;
    cfg.n_servers = 5;
    cfg.rounds = 8;
    cfg.broadcasts = 4;
    const auto rd = make_random_dag(forge, cfg, seed);
    expect_orders_agree(rd.dag, 5, seed * 977 + 13, "seed=" + std::to_string(seed));
  }

  // Equivocation forks in the parent chain: two distinct blocks at
  // (server 0, k=1), both children of b0 and both referenced by server 1.
  BlockForge forge(2);
  const BlockPtr b0 = forge.block(0, 0, {}, {{1, brb::make_broadcast(Bytes{7})}});
  const BlockPtr fork_a = forge.block(0, 1, {b0->ref()});
  const BlockPtr fork_b =
      forge.block(0, 1, {b0->ref()}, {{2, brb::make_broadcast(Bytes{9})}});
  ASSERT_NE(fork_a->ref(), fork_b->ref());
  const BlockPtr c = forge.block(1, 0, {fork_a->ref(), fork_b->ref()});
  const BlockPtr d = forge.block(0, 2, {fork_a->ref(), c->ref()});
  BlockDag forked;
  for (const BlockPtr& b : {b0, fork_a, fork_b, c, d}) {
    ASSERT_TRUE(forked.insert(b));
  }
  expect_orders_agree(forked, 2, 7, "equivocation forks");

  // A hostile DAG grown by the deterministic cluster: an equivocator and a
  // duplicate-referencer in the mix.
  brb::BrbFactory factory;
  ClusterConfig ccfg;
  ccfg.n_servers = 5;
  ccfg.seed = 1234;
  ccfg.byzantine[3] = ByzantineKind::kEquivocator;
  ccfg.byzantine[4] = ByzantineKind::kDuplicateReferencer;
  Cluster cluster(factory, ccfg);
  cluster.start();
  for (std::uint32_t i = 0; i < 6; ++i) {
    cluster.request(i % 3, 1 + i, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  cluster.run_for(sim_ms(400));
  cluster.stop();
  ASSERT_GT(cluster.shim(0).dag().size(), 0u);
  expect_orders_agree(cluster.shim(0).dag(), 5, 1234, "byzantine cluster");
}

TEST(Lemma42Regression, IncrementalRunMatchesOneShotRun) {
  // Growing the DAG between run() calls (the gossip pattern) must land on
  // the same digests as interpreting the finished DAG in one pass.
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.n_servers = 4;
  cfg.rounds = 7;
  cfg.broadcasts = 3;
  const auto rd = make_random_dag(forge, cfg, 42);
  brb::BrbFactory factory;

  BlockDag growing;
  Interpreter incremental(growing, factory, 4);
  for (const BlockPtr& b : rd.dag.topological_order()) {
    ASSERT_TRUE(growing.insert(b));
    incremental.run();
  }

  Interpreter oneshot(rd.dag, factory, 4);
  oneshot.run();
  for (const BlockPtr& b : rd.dag.topological_order()) {
    EXPECT_EQ(incremental.digest_of(b->ref()), oneshot.digest_of(b->ref()));
  }
}

TEST(Lemma42Regression, InstanceStatesShareStorageDownChains) {
  // White-box: B.PIs is persistent. A block that does not advance label 1
  // must hold its parent's label-1 instance handle (line 4 copies share
  // storage), and a block that advances a label must leave its parent's
  // map unchanged.
  BlockForge forge(4);
  BlockDag dag;
  const BlockPtr g0 = forge.block(0, 0, {}, {{1, brb::make_broadcast(Bytes{1})}});
  const BlockPtr b1 = forge.block(0, 1, {g0->ref()});
  const BlockPtr b2 = forge.block(0, 2, {b1->ref()});
  ASSERT_TRUE(dag.insert(g0));
  ASSERT_TRUE(dag.insert(b1));
  ASSERT_TRUE(dag.insert(b2));
  brb::BrbFactory factory;
  Interpreter interp(dag, factory, 4);
  interp.run();

  const auto* s0 = interp.state_of(g0->ref());
  const auto* s1 = interp.state_of(b1->ref());
  const auto* s2 = interp.state_of(b2->ref());
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  ASSERT_NE(s0->pis.find(1), nullptr);
  ASSERT_NE(s1->pis.find(1), nullptr);
  ASSERT_NE(s2->pis.find(1), nullptr);
  // b1 feeds g0's self-addressed ECHO to instance 1, so it holds a new
  // instance; b2's pred b1 sent nothing, so b2 holds b1's very instance.
  ASSERT_EQ(s1->ms_in.count(1), 1u);
  EXPECT_NE(*s1->pis.find(1), *s0->pis.find(1));
  EXPECT_EQ(s2->ms_in.count(1), 0u);
  EXPECT_EQ(*s2->pis.find(1), *s1->pis.find(1));

  // A block advancing label 2 adds it to its own map only; its parent's
  // map still holds label 1 alone, with the same handle.
  const BlockPtr b3 = forge.block(0, 3, {b2->ref()}, {{2, brb::make_broadcast(Bytes{2})}});
  ASSERT_TRUE(dag.insert(b3));
  interp.run();
  // run() may grow the state table; re-read the pointers it invalidated.
  s1 = interp.state_of(b1->ref());
  s2 = interp.state_of(b2->ref());
  const auto* s3 = interp.state_of(b3->ref());
  ASSERT_NE(s3, nullptr);
  ASSERT_NE(s3->pis.find(1), nullptr);
  ASSERT_NE(s3->pis.find(2), nullptr);
  EXPECT_EQ(*s3->pis.find(1), *s2->pis.find(1));
  EXPECT_EQ(s3->pis.size(), 2u);
  EXPECT_EQ(s2->pis.size(), 1u);
  EXPECT_EQ(s2->pis.find(2), nullptr);
  EXPECT_EQ(*s2->pis.find(1), *s1->pis.find(1));
}

TEST(Lemma42Regression, CursorSurvivesPruning) {
  // forget_pruned() must not reset the incremental cursor to zero: after a
  // prune, run() resumes at the first live uninterpreted slot instead of
  // rescanning the whole order (dense indices are stable across pruning).
  BlockForge forge(4);
  BlockDag dag;
  std::vector<BlockPtr> chain;
  chain.push_back(forge.block(0, 0, {}, {{1, brb::make_broadcast(Bytes{7})}}));
  ASSERT_TRUE(dag.insert(chain.back()));
  for (SeqNo k = 1; k < 12; ++k) {
    chain.push_back(forge.block(0, k, {chain.back()->ref()}));
    ASSERT_TRUE(dag.insert(chain.back()));
  }
  brb::BrbFactory factory;
  Interpreter interp(dag, factory, 4);
  EXPECT_EQ(interp.run(), 12u);
  EXPECT_EQ(interp.resume_index(), 12u);

  dag.prune_below({chain[9]->ref()});
  interp.forget_pruned();
  EXPECT_EQ(interp.resume_index(), 12u);  // not reset to 0

  const BlockPtr next = forge.block(0, 12, {chain[11]->ref()});
  ASSERT_TRUE(dag.insert(next));
  EXPECT_EQ(interp.run(), 1u);
  EXPECT_TRUE(interp.is_interpreted(next->ref()));
  EXPECT_EQ(interp.resume_index(), 13u);
}

}  // namespace
}  // namespace blockdag
