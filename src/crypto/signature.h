// Signature schemes.
//
// The paper assumes a secure signature scheme with sign : Srvrs × M → Σ and
// verify : Srvrs × M × Σ → B, with negligible (assumed zero) failure
// probability (Section 2). Three concrete providers:
//
//  * IdealSignatureProvider — the paper's idealization as an ideal
//    functionality: signing is HMAC-SHA256 under a per-server secret seed;
//    verification recomputes the MAC via a key directory held by the
//    (trusted) simulation environment. Unforgeable by construction inside
//    the simulation, and fast — the default for experiments.
//  * HmacSignatureProvider — the cheapest *deployable* instantiation:
//    pre-shared symmetric keys with domain-separated derivation and
//    constant-time tag comparison. Same wire size as ideal (32 bytes) but
//    implemented the way a real pre-shared-key deployment would.
//  * WotsSignatureProvider (wots.h) — a real hash-based Winternitz one-time
//    signature with per-sequence-number key ratcheting. Demonstrates a
//    deployable public-key instantiation; its cost appears in
//    bench_signatures and the bench_tcp/bench_udp A/B rows.
//
// All providers count sign/verify operations so benchmarks can report the
// signature-batching advantage (one signature per block vs per message).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "util/types.h"

namespace blockdag {

// Selects the concrete SignatureProvider wired into block validation.
// Threaded via `--sig ideal|hmac|wots` through every simctl subcommand and
// through ThreadedConfig / ClusterConfig.
enum class SigScheme : std::uint8_t {
  kIdeal = 0,  // ideal functionality (default; unforgeable idealization)
  kHmac = 1,   // real pre-shared-key HMAC-SHA256 (cheap real scheme)
  kWots = 2,   // real hash-based Winternitz one-time sigs (expensive)
};

const char* sig_scheme_name(SigScheme scheme);
std::optional<SigScheme> parse_sig_scheme(std::string_view name);

// Running tally of cryptographic operations, used by the benches that
// reproduce the paper's signature-batching claim.
struct CryptoCounters {
  std::uint64_t signs = 0;
  std::uint64_t verifies = 0;

  void reset() { *this = CryptoCounters{}; }
};

// Abstract signature provider: the per-experiment source of signing and
// verification for a fixed server set.
class SignatureProvider {
 public:
  virtual ~SignatureProvider() = default;

  // Signs `message` on behalf of `signer`. Only the simulation harness
  // invokes this with a given ServerId; the harness never signs for one
  // server inside another server's code (mirrors private-key isolation).
  virtual Bytes sign(ServerId signer, std::span<const std::uint8_t> message) = 0;

  // Verifies `signature` on `message` for `claimed` signer.
  virtual bool verify(ServerId claimed, std::span<const std::uint8_t> message,
                      std::span<const std::uint8_t> signature) = 0;

  // Signing in two halves, for a caller that keeps its owner thread short
  // while signing a large message (the epoch checkpoint,
  // sync/checkpointer.h). prepare_to_sign() does the O(message) hashing:
  // it is const, reads only key material fixed at construction and may run
  // on any thread. sign_prepared() runs where sign() would — it counts the
  // signature and, for a stateful scheme, consumes the key — and returns
  // exactly the bytes sign(signer, message) would. The defaults carry the
  // whole message over, so a scheme without a split still signs correctly.
  virtual Bytes prepare_to_sign(ServerId signer,
                                std::span<const std::uint8_t> message) const {
    (void)signer;
    return Bytes(message.begin(), message.end());
  }
  virtual Bytes sign_prepared(ServerId signer, const Bytes& prepared) {
    return sign(signer, prepared);
  }

  CryptoCounters& counters() { return counters_; }
  const CryptoCounters& counters() const { return counters_; }

 protected:
  CryptoCounters counters_;
};

// The ideal-functionality provider (default).
class IdealSignatureProvider final : public SignatureProvider {
 public:
  // `n_servers` seeds are derived deterministically from `seed`.
  IdealSignatureProvider(std::uint32_t n_servers, std::uint64_t seed);

  Bytes sign(ServerId signer, std::span<const std::uint8_t> message) override;
  bool verify(ServerId claimed, std::span<const std::uint8_t> message,
              std::span<const std::uint8_t> signature) override;
  // HMAC's inner pass / outer pass.
  Bytes prepare_to_sign(ServerId signer,
                        std::span<const std::uint8_t> message) const override;
  Bytes sign_prepared(ServerId signer, const Bytes& prepared) override;

 private:
  Bytes mac(ServerId server, std::span<const std::uint8_t> message) const;

  std::vector<Bytes> seeds_;  // one 32-byte secret per server
};

// A deployable pre-shared-key MAC scheme. Functionally close to the ideal
// provider but built the way a real symmetric deployment would be: per-server
// keys derived with explicit domain separation from a shared root secret, and
// verification via constant-time tag comparison (no early exit on the first
// mismatching byte).
class HmacSignatureProvider final : public SignatureProvider {
 public:
  HmacSignatureProvider(std::uint32_t n_servers, std::uint64_t seed);

  Bytes sign(ServerId signer, std::span<const std::uint8_t> message) override;
  bool verify(ServerId claimed, std::span<const std::uint8_t> message,
              std::span<const std::uint8_t> signature) override;
  // HMAC's inner pass / outer pass.
  Bytes prepare_to_sign(ServerId signer,
                        std::span<const std::uint8_t> message) const override;
  Bytes sign_prepared(ServerId signer, const Bytes& prepared) override;

 private:
  Bytes tag(ServerId server, std::span<const std::uint8_t> message) const;

  std::vector<Bytes> keys_;  // one domain-separated 32-byte key per server
};

// Builds the provider selected by `scheme`. All instances created with the
// same (scheme, n_servers, seed) derive identical key material, so per-node
// provider instances on the threaded runtime can verify each other's
// signatures without any key exchange.
std::unique_ptr<SignatureProvider> make_signature_provider(
    SigScheme scheme, std::uint32_t n_servers, std::uint64_t seed);

}  // namespace blockdag
