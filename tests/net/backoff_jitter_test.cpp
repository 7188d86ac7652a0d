// jittered_delay: the de-correlation primitive behind both socket
// backends' retry schedules (TCP reconnects, UDP retransmission RTOs).
//
// The contract under test: delays spread uniformly over ±jitter_pct of the
// base — genuinely using both halves of the band, never escaping it — from
// a deterministic seeded stream (same seed ⇒ same schedule, the
// reproducibility rule every transport decision obeys), and the disabled
// configuration is bit-identical to pre-jitter behaviour including not
// consuming the stream.
#include "net/backoff.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "net/datagram.h"
#include "rt/tcp_transport.h"

namespace blockdag {
namespace {

TEST(BackoffJitter, SpreadsAcrossTheFullBandAndStaysInside) {
  const std::uint64_t base = 25'000'000;  // 25ms in ns
  const double pct = 0.25;
  std::uint64_t state = 0x12345678u;

  const std::uint64_t lo = 18'750'000;  // base * 0.75
  const std::uint64_t hi = 31'250'000;  // base * 1.25
  std::uint64_t min_seen = UINT64_MAX;
  std::uint64_t max_seen = 0;
  double sum = 0;
  const int kDraws = 4096;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t d = jittered_delay(base, pct, state);
    ASSERT_GE(d, lo) << "draw " << i << " escaped the band low";
    ASSERT_LE(d, hi) << "draw " << i << " escaped the band high";
    min_seen = std::min(min_seen, d);
    max_seen = std::max(max_seen, d);
    sum += static_cast<double>(d);
  }
  // The point of jitter is spread: draws must actually reach both edges of
  // the band, not cluster at the base (which would leave retries in
  // lockstep). With 4096 uniform draws the extremes land within 1% of the
  // edges with overwhelming probability.
  EXPECT_LT(min_seen, lo + base / 100) << "never approached the low edge";
  EXPECT_GT(max_seen, hi - base / 100) << "never approached the high edge";
  // Expected delay is unchanged: the mean stays within 2% of the base.
  const double mean = sum / kDraws;
  EXPECT_GT(mean, 0.98 * static_cast<double>(base));
  EXPECT_LT(mean, 1.02 * static_cast<double>(base));
}

TEST(BackoffJitter, SeededStreamIsDeterministic) {
  std::uint64_t a = 42, b = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(jittered_delay(1'000'000, 0.25, a),
              jittered_delay(1'000'000, 0.25, b));
  }
  EXPECT_EQ(a, b);
  // Different seeds produce different schedules (that is the
  // de-correlation: two channels must not retry in lockstep).
  std::uint64_t c = 43;
  int differing = 0;
  std::uint64_t a2 = 42;
  for (int i = 0; i < 100; ++i) {
    if (jittered_delay(1'000'000, 0.25, a2) !=
        jittered_delay(1'000'000, 0.25, c)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 90);
}

TEST(BackoffJitter, DisabledIsIdentityAndDoesNotConsumeTheStream) {
  for (const double pct : {0.0, -0.5, 1.0, 1.5}) {
    std::uint64_t state = 7;
    EXPECT_EQ(jittered_delay(123456, pct, state), 123456u) << "pct " << pct;
    EXPECT_EQ(state, 7u) << "pct " << pct << " advanced the stream";
  }
  std::uint64_t state = 7;
  EXPECT_EQ(jittered_delay(0, 0.25, state), 0u);
  EXPECT_EQ(state, 7u) << "base 0 advanced the stream";
}

// The two real-socket backends ship with ±25% jitter on by default — the
// crash/restart fault injector depends on survivors not re-dialing and
// re-transmitting in synchronized waves against a reborn member.
TEST(BackoffJitter, SocketBackendsDefaultToTwentyFivePercent) {
  EXPECT_DOUBLE_EQ(rt::kTcpReconnectJitter, 0.25);
  EXPECT_DOUBLE_EQ(DatagramChannelConfig{}.rto_jitter, 0.25);
}

}  // namespace
}  // namespace blockdag
