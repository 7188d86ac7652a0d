// Property sweeps over randomly generated block DAGs (TEST_P):
//   * Lemma 4.2 — interpretation is independent of the interpreting
//     server, of the eligible-block order chosen, and of DAG prefix;
//   * Lemma 4.3(2)/(3) — no duplication and authenticity at the
//     interpreter level;
//   * out-buffer provenance — Lemma A.12/A.14 invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "interpret/interpreter.h"
#include "protocols/brb.h"
#include "testing/random_dag.h"
#include "util/rng.h"

namespace blockdag {
namespace {

using testing::BlockForge;
using testing::make_random_dag;
using testing::prefix_of;
using testing::RandomDag;
using testing::RandomDagConfig;

class InterpreterProperties : public ::testing::TestWithParam<std::uint64_t> {};

RandomDag generate(BlockForge& forge, std::uint64_t seed) {
  RandomDagConfig cfg;
  cfg.n_servers = 4 + seed % 3;  // 4..6 servers
  cfg.rounds = 6 + seed % 5;     // 6..10 rounds
  cfg.broadcasts = 3;
  return make_random_dag(forge, cfg, seed);
}

TEST_P(InterpreterProperties, OrderIndependentInterpretation) {
  BlockForge forge(16);
  const RandomDag rd = generate(forge, GetParam());
  brb::BrbFactory factory;

  // Reference: topological insertion order.
  Interpreter reference(rd.dag, factory, 16);
  reference.run();

  // Shuffled: repeatedly pick a random eligible block.
  Interpreter shuffled(rd.dag, factory, 16);
  Rng rng(GetParam() ^ 0xfeed);
  std::vector<Hash256> remaining;
  for (const BlockPtr& b : rd.dag.topological_order()) remaining.push_back(b->ref());
  while (!remaining.empty()) {
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (shuffled.eligible(remaining[i])) eligible.push_back(i);
    }
    ASSERT_FALSE(eligible.empty());
    const std::size_t pick = eligible[rng.below(eligible.size())];
    ASSERT_TRUE(shuffled.interpret_one(remaining[pick]));
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  for (const BlockPtr& b : rd.dag.topological_order()) {
    ASSERT_EQ(reference.digest_of(b->ref()), shuffled.digest_of(b->ref()))
        << "divergence at block " << b->ref().short_hex();
  }
}

TEST_P(InterpreterProperties, PrefixConsistency) {
  // G ⩽ G' ⇒ identical interpretation on G's blocks (Lemma 4.2).
  BlockForge forge(16);
  const RandomDag rd = generate(forge, GetParam());
  brb::BrbFactory factory;

  Interpreter full(rd.dag, factory, 16);
  full.run();
  for (double fraction : {0.3, 0.6, 0.9}) {
    const BlockDag prefix = prefix_of(rd.dag, fraction);
    ASSERT_TRUE(prefix.subgraph_of(rd.dag));
    Interpreter partial(prefix, factory, 16);
    partial.run();
    for (const BlockPtr& b : prefix.topological_order()) {
      ASSERT_EQ(partial.digest_of(b->ref()), full.digest_of(b->ref()));
    }
  }
}

TEST_P(InterpreterProperties, NoDuplicationPerChain) {
  // Lemma 4.3(2): across each builder's chain, no in-message repeats for
  // the same label (the generator follows the reference-once discipline).
  BlockForge forge(16);
  const RandomDag rd = generate(forge, GetParam());
  brb::BrbFactory factory;
  Interpreter interp(rd.dag, factory, 16);
  interp.run();

  std::map<std::pair<ServerId, Label>, std::set<Bytes>> seen;
  for (const BlockPtr& b : rd.dag.topological_order()) {
    const auto* st = interp.state_of(b->ref());
    ASSERT_NE(st, nullptr);
    for (const auto& [label, msgs] : st->ms_in) {
      auto& bucket = seen[{b->n(), label}];
      for (const Message& m : msgs) {
        ASSERT_TRUE(bucket.insert(m.canonical()).second)
            << "duplicate delivery at server " << b->n();
      }
    }
  }
}

TEST_P(InterpreterProperties, AuthenticityAndProvenance) {
  // Lemma A.14: out-messages carry the builder as sender. Lemma A.12:
  // out-buffers only exist for labels requested somewhere in the ancestry.
  BlockForge forge(16);
  const RandomDag rd = generate(forge, GetParam());
  brb::BrbFactory factory;
  Interpreter interp(rd.dag, factory, 16);
  interp.run();

  // Whether some block in B's ancestry (B included) requests `label`.
  const auto requested_in_ancestry = [&](const BlockPtr& b, Label label) {
    const std::vector<BlockPtr> blocks = rd.dag.ancestors_of(b->ref());
    return std::any_of(blocks.begin(), blocks.end(), [label](const BlockPtr& a) {
      return std::any_of(a->rs().begin(), a->rs().end(),
                         [label](const LabeledRequest& lr) { return lr.label == label; });
    });
  };
  for (const BlockPtr& b : rd.dag.topological_order()) {
    const auto* st = interp.state_of(b->ref());
    for (const auto& [label, msgs] : st->ms_out) {
      if (msgs.empty()) continue;
      EXPECT_TRUE(requested_in_ancestry(b, label));
      EXPECT_TRUE(rd.broadcasts.count(label));
      for (const Message& m : msgs) EXPECT_EQ(m.sender, b->n());
    }
  }
}

TEST_P(InterpreterProperties, InMessagesSortedByTotalOrder) {
  // Algorithm 2 line 10: messages are fed in <M order.
  BlockForge forge(16);
  const RandomDag rd = generate(forge, GetParam());
  brb::BrbFactory factory;
  Interpreter interp(rd.dag, factory, 16);
  interp.run();

  const MessageOrder less;
  for (const BlockPtr& b : rd.dag.topological_order()) {
    const auto* st = interp.state_of(b->ref());
    for (const auto& [label, msgs] : st->ms_in) {
      (void)label;
      EXPECT_TRUE(std::is_sorted(msgs.begin(), msgs.end(), less));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterProperties,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace blockdag
