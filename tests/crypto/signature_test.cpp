#include "crypto/signature.h"

#include <gtest/gtest.h>

namespace blockdag {
namespace {

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(IdealSignature, SignVerifyRoundTrip) {
  IdealSignatureProvider sigs(4, 1);
  const Bytes m = msg("block ref");
  const Bytes sig = sigs.sign(2, m);
  EXPECT_TRUE(sigs.verify(2, m, sig));
}

TEST(IdealSignature, WrongSignerRejected) {
  IdealSignatureProvider sigs(4, 1);
  const Bytes m = msg("block ref");
  const Bytes sig = sigs.sign(2, m);
  EXPECT_FALSE(sigs.verify(1, m, sig));
  EXPECT_FALSE(sigs.verify(3, m, sig));
}

TEST(IdealSignature, WrongMessageRejected) {
  IdealSignatureProvider sigs(4, 1);
  const Bytes sig = sigs.sign(0, msg("a"));
  EXPECT_FALSE(sigs.verify(0, msg("b"), sig));
}

TEST(IdealSignature, TamperedSignatureRejected) {
  IdealSignatureProvider sigs(4, 1);
  const Bytes m = msg("a");
  Bytes sig = sigs.sign(0, m);
  sig[0] ^= 1;
  EXPECT_FALSE(sigs.verify(0, m, sig));
  sig[0] ^= 1;
  sig.pop_back();
  EXPECT_FALSE(sigs.verify(0, m, sig));  // truncated
}

TEST(IdealSignature, UnknownServerRejected) {
  IdealSignatureProvider sigs(4, 1);
  const Bytes m = msg("a");
  EXPECT_FALSE(sigs.verify(17, m, sigs.sign(0, m)));
}

TEST(IdealSignature, DeterministicAcrossInstances) {
  IdealSignatureProvider a(4, 99), b(4, 99);
  const Bytes m = msg("same seed, same signature");
  EXPECT_EQ(a.sign(1, m), b.sign(1, m));
}

TEST(IdealSignature, DifferentSeedsDisjoint) {
  IdealSignatureProvider a(4, 1), b(4, 2);
  const Bytes m = msg("x");
  EXPECT_FALSE(b.verify(0, m, a.sign(0, m)));
}

TEST(IdealSignature, CountersTrackOps) {
  IdealSignatureProvider sigs(4, 1);
  const Bytes m = msg("x");
  const Bytes sig = sigs.sign(0, m);
  (void)sigs.verify(0, m, sig);
  (void)sigs.verify(1, m, sig);
  EXPECT_EQ(sigs.counters().signs, 1u);
  EXPECT_EQ(sigs.counters().verifies, 2u);
  sigs.counters().reset();
  EXPECT_EQ(sigs.counters().signs, 0u);
}

TEST(SignatureSplit, PreparedSignaturesEqualOneCallSignaturesForEveryScheme) {
  // The checkpoint writer hashes off the owner thread and the owner signs
  // the prepared bytes: the result must be the one-call signature, byte
  // for byte, and it must count as one signature. Two instances with the
  // same seed make WOTS's stateful key index line up.
  Bytes big(100000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
  for (const SigScheme scheme : {SigScheme::kIdeal, SigScheme::kHmac, SigScheme::kWots}) {
    auto one_call = make_signature_provider(scheme, 4, 9);
    auto split = make_signature_provider(scheme, 4, 9);
    for (const Bytes& m : {msg(""), msg("checkpoint"), big}) {
      const Bytes expected = one_call->sign(2, m);
      const Bytes prepared = split->prepare_to_sign(2, m);
      EXPECT_EQ(split->sign_prepared(2, prepared), expected)
          << sig_scheme_name(scheme) << " message of " << m.size() << " bytes";
      EXPECT_TRUE(one_call->verify(2, m, expected));
    }
    EXPECT_EQ(split->counters().signs, one_call->counters().signs);
  }
}

}  // namespace
}  // namespace blockdag
