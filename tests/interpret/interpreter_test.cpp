#include "interpret/interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "protocols/brb.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace blockdag {
namespace {

using testing::BlockForge;

Bytes val(std::uint8_t v) { return Bytes{v}; }

struct InterpreterTest : ::testing::Test {
  BlockForge forge{4};
  BlockDag dag;
  brb::BrbFactory factory;
};

TEST_F(InterpreterTest, GenesisRequestMaterializesEchoes) {
  const BlockPtr b1 = forge.block(0, 0, {}, {{1, brb::make_broadcast(val(42))}});
  dag.insert(b1);
  Interpreter interp(dag, factory, 4);
  EXPECT_EQ(interp.run(), 1u);

  const BlockInterpretation* st = interp.state_of(b1->ref());
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->interpreted);
  EXPECT_TRUE(st->ms_in.empty());  // in = ∅ at B1 (Figure 4)
  ASSERT_EQ(st->ms_out.at(1).size(), 4u);  // ECHO 42 to every server
  for (const Message& m : st->ms_out.at(1)) {
    EXPECT_EQ(m.sender, 0u);  // Lemma A.14: sender = B.n
    const auto parsed = brb::parse_message(m.payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, brb::MsgType::kEcho);
    EXPECT_EQ(parsed->value, val(42));
  }
}

TEST_F(InterpreterTest, EligibilityRequiresInterpretedPreds) {
  const BlockPtr b1 = forge.block(0, 0, {});
  const BlockPtr b2 = forge.block(0, 1, {b1->ref()});
  dag.insert(b1);
  dag.insert(b2);
  Interpreter interp(dag, factory, 4);
  EXPECT_TRUE(interp.eligible(b1->ref()));
  EXPECT_FALSE(interp.eligible(b2->ref()));
  EXPECT_FALSE(interp.interpret_one(b2->ref()));
  EXPECT_TRUE(interp.interpret_one(b1->ref()));
  EXPECT_TRUE(interp.eligible(b2->ref()));
  EXPECT_TRUE(interp.interpret_one(b2->ref()));
  EXPECT_FALSE(interp.eligible(b2->ref()));  // I[B] = true now
}

TEST_F(InterpreterTest, MessagesFlowOnlyAlongDirectEdges) {
  // B1 (s0, broadcast) → B2 (s1) → B3 (s2). B3 does not reference B1, so
  // s2's in-messages at B3 come only from B2's out-buffer.
  const BlockPtr b1 = forge.block(0, 0, {}, {{1, brb::make_broadcast(val(7))}});
  const BlockPtr b2 = forge.block(1, 0, {b1->ref()});
  const BlockPtr b3 = forge.block(2, 0, {b2->ref()});
  dag.insert(b1);
  dag.insert(b2);
  dag.insert(b3);
  Interpreter interp(dag, factory, 4);
  interp.run();

  const auto* st3 = interp.state_of(b3->ref());
  ASSERT_NE(st3, nullptr);
  ASSERT_EQ(st3->ms_in.at(1).size(), 1u);
  EXPECT_EQ(st3->ms_in.at(1)[0].sender, 1u);  // from s1 (B2), not s0
}

TEST_F(InterpreterTest, ReceiverFilteringIsExact) {
  const BlockPtr b1 = forge.block(0, 0, {}, {{1, brb::make_broadcast(val(7))}});
  const BlockPtr b2 = forge.block(1, 0, {b1->ref()});
  dag.insert(b1);
  dag.insert(b2);
  Interpreter interp(dag, factory, 4);
  interp.run();

  const auto* st2 = interp.state_of(b2->ref());
  ASSERT_EQ(st2->ms_in.at(1).size(), 1u);
  EXPECT_EQ(st2->ms_in.at(1)[0].receiver, 1u);  // only messages for B2.n
}

TEST_F(InterpreterTest, ParentStateIsCopiedNotShared) {
  // s0 broadcasts at B1; its next block B2 copies the instance state (which
  // has echoed=true) — the instance does not echo again.
  const BlockPtr b1 = forge.block(0, 0, {}, {{1, brb::make_broadcast(val(7))}});
  const BlockPtr b2 = forge.block(0, 1, {b1->ref()});
  dag.insert(b1);
  dag.insert(b2);
  Interpreter interp(dag, factory, 4);
  interp.run();

  const auto* st2 = interp.state_of(b2->ref());
  // In-messages: s0's own ECHO (self-addressed) from B1.
  ASSERT_EQ(st2->ms_in.at(1).size(), 1u);
  // Out: nothing new — already echoed, no quorum yet.
  const auto out_it = st2->ms_out.find(1);
  EXPECT_TRUE(out_it == st2->ms_out.end() || out_it->second.empty());
}

TEST_F(InterpreterTest, OrderIndependenceLemmaA11) {
  // Interpret the same diamond DAG in every eligible order; per-block
  // digests must agree (Lemma A.11 / Lemma 4.2).
  const BlockPtr b1 = forge.block(0, 0, {}, {{1, brb::make_broadcast(val(3))}});
  const BlockPtr b2 = forge.block(1, 0, {b1->ref()});
  const BlockPtr b3 = forge.block(2, 0, {b1->ref()});
  const BlockPtr b4 = forge.block(3, 0, {b2->ref(), b3->ref()});
  dag.insert(b1);
  dag.insert(b2);
  dag.insert(b3);
  dag.insert(b4);

  const std::vector<std::vector<Hash256>> orders = {
      {b1->ref(), b2->ref(), b3->ref(), b4->ref()},
      {b1->ref(), b3->ref(), b2->ref(), b4->ref()},
  };
  std::vector<std::vector<Bytes>> digests;
  for (const auto& order : orders) {
    Interpreter interp(dag, factory, 4);
    for (const Hash256& ref : order) {
      ASSERT_TRUE(interp.interpret_one(ref));
    }
    std::vector<Bytes> ds;
    for (const auto& b : {b1, b2, b3, b4}) ds.push_back(interp.digest_of(b->ref()));
    digests.push_back(std::move(ds));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST_F(InterpreterTest, PrefixDagAgreesLemma42) {
  // G ⩽ G': for blocks in G, interpretation over G and G' agree.
  const BlockPtr b1 = forge.block(0, 0, {}, {{1, brb::make_broadcast(val(3))}});
  const BlockPtr b2 = forge.block(1, 0, {b1->ref()});
  const BlockPtr b3 = forge.block(2, 0, {b1->ref(), b2->ref()});
  BlockDag small;
  small.insert(b1);
  small.insert(b2);
  BlockDag big;
  big.insert(b1);
  big.insert(b2);
  big.insert(b3);

  Interpreter is(small, factory, 4);
  Interpreter ib(big, factory, 4);
  is.run();
  ib.run();
  EXPECT_EQ(is.digest_of(b1->ref()), ib.digest_of(b1->ref()));
  EXPECT_EQ(is.digest_of(b2->ref()), ib.digest_of(b2->ref()));
}

TEST_F(InterpreterTest, NoDuplicationAcrossDuplicateRefs) {
  // Byzantine duplicate references (same pred twice) must deliver each
  // message once (Ms[in] is a set union — Algorithm 2 line 9).
  const BlockPtr b1 = forge.block(0, 0, {}, {{1, brb::make_broadcast(val(5))}});
  const BlockPtr b2 = forge.block(1, 0, {b1->ref(), b1->ref()});
  dag.insert(b1);
  dag.insert(b2);
  Interpreter interp(dag, factory, 4);
  interp.run();
  EXPECT_EQ(interp.state_of(b2->ref())->ms_in.at(1).size(), 1u);
}

TEST_F(InterpreterTest, IndicationCarriesBuilder) {
  // Build enough structure for s0 to deliver; the indication reports B.n.
  std::vector<BlockPtr> level0, level1;
  level0.push_back(forge.block(0, 0, {}, {{1, brb::make_broadcast(val(9))}}));
  dag.insert(level0[0]);
  for (ServerId s = 1; s < 4; ++s) {
    level0.push_back(forge.block(s, 0, {level0[0]->ref()}));
    dag.insert(level0.back());
  }
  std::vector<Hash256> all0;
  for (const auto& b : level0) all0.push_back(b->ref());
  for (ServerId s = 0; s < 4; ++s) {
    std::vector<Hash256> preds = all0;
    level1.push_back(forge.block(s, 1, preds));
    dag.insert(level1.back());
  }
  std::vector<Hash256> all1;
  for (const auto& b : level1) all1.push_back(b->ref());
  const BlockPtr final0 = forge.block(0, 2, all1);
  dag.insert(final0);

  std::vector<std::pair<Label, ServerId>> indications;
  Interpreter interp(dag, factory, 4);
  interp.set_indication_handler([&](Label l, const Bytes& ind, ServerId on_behalf) {
    indications.emplace_back(l, on_behalf);
    EXPECT_EQ(brb::parse_deliver(ind), val(9));
  });
  interp.run();
  ASSERT_FALSE(indications.empty());
  EXPECT_EQ(indications[0].first, 1u);
  EXPECT_EQ(indications[0].second, 0u);  // s0's own block delivered
}

TEST_F(InterpreterTest, StatsAccumulate) {
  const BlockPtr b1 = forge.block(0, 0, {}, {{1, brb::make_broadcast(val(1))}});
  const BlockPtr b2 = forge.block(1, 0, {b1->ref()});
  dag.insert(b1);
  dag.insert(b2);
  Interpreter interp(dag, factory, 4);
  interp.run();
  EXPECT_EQ(interp.stats().blocks_interpreted, 2u);
  EXPECT_EQ(interp.stats().requests_processed, 1u);
  EXPECT_EQ(interp.stats().messages_delivered, 1u);   // ECHO into B2
  EXPECT_EQ(interp.stats().messages_materialized, 8u);  // 4 + 4 echoes
}

TEST_F(InterpreterTest, MultipleLabelsAreIndependent) {
  // Two instances on the same blocks: out-buffers must not cross labels.
  const BlockPtr b1 = forge.block(0, 0, {},
                                  {{1, brb::make_broadcast(val(1))},
                                   {2, brb::make_broadcast(val(2))}});
  const BlockPtr b2 = forge.block(1, 0, {b1->ref()});
  dag.insert(b1);
  dag.insert(b2);
  Interpreter interp(dag, factory, 4);
  interp.run();

  const auto* st1 = interp.state_of(b1->ref());
  ASSERT_EQ(st1->ms_out.at(1).size(), 4u);
  ASSERT_EQ(st1->ms_out.at(2).size(), 4u);
  for (const Message& m : st1->ms_out.at(1)) {
    EXPECT_EQ(brb::parse_message(m.payload)->value, val(1));
  }
  for (const Message& m : st1->ms_out.at(2)) {
    EXPECT_EQ(brb::parse_message(m.payload)->value, val(2));
  }
  const auto* st2 = interp.state_of(b2->ref());
  EXPECT_EQ(st2->ms_in.at(1).size(), 1u);
  EXPECT_EQ(st2->ms_in.at(2).size(), 1u);
}

TEST_F(InterpreterTest, RunIsIncremental) {
  const BlockPtr b1 = forge.block(0, 0, {});
  dag.insert(b1);
  Interpreter interp(dag, factory, 4);
  EXPECT_EQ(interp.run(), 1u);
  EXPECT_EQ(interp.run(), 0u);
  const BlockPtr b2 = forge.block(0, 1, {b1->ref()});
  dag.insert(b2);
  EXPECT_EQ(interp.run(), 1u);
}

TEST_F(InterpreterTest, DigestOfUninterpretedIsStable) {
  const BlockPtr b1 = forge.block(0, 0, {});
  dag.insert(b1);
  Interpreter interp(dag, factory, 4);
  EXPECT_EQ(interp.digest_of(b1->ref()), interp.digest_of(b1->ref()));
}

}  // namespace
}  // namespace blockdag
