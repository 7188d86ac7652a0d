#include "crypto/signature.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/wots.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace blockdag {

namespace {

// Derives a 32-byte secret from a SplitMix64 stream.
Bytes derive_secret(SplitMix64& sm) {
  Bytes s(32);
  for (std::size_t j = 0; j < 32; j += 8) {
    const std::uint64_t v = sm.next();
    for (int b = 0; b < 8; ++b) s[j + b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
  return s;
}

}  // namespace

const char* sig_scheme_name(SigScheme scheme) {
  switch (scheme) {
    case SigScheme::kIdeal: return "ideal";
    case SigScheme::kHmac: return "hmac";
    case SigScheme::kWots: return "wots";
  }
  return "?";
}

std::optional<SigScheme> parse_sig_scheme(std::string_view name) {
  if (name == "ideal") return SigScheme::kIdeal;
  if (name == "hmac") return SigScheme::kHmac;
  if (name == "wots") return SigScheme::kWots;
  return std::nullopt;
}

IdealSignatureProvider::IdealSignatureProvider(std::uint32_t n_servers,
                                               std::uint64_t seed) {
  SplitMix64 sm(seed);
  seeds_.reserve(n_servers);
  for (std::uint32_t i = 0; i < n_servers; ++i) {
    Bytes s(32);
    for (std::size_t j = 0; j < 32; j += 8) {
      const std::uint64_t v = sm.next();
      for (int b = 0; b < 8; ++b) s[j + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    seeds_.push_back(std::move(s));
  }
}

Bytes IdealSignatureProvider::mac(ServerId server,
                                  std::span<const std::uint8_t> message) const {
  const auto d = hmac_sha256(seeds_[server], message);
  return Bytes(d.begin(), d.end());
}

Bytes IdealSignatureProvider::sign(ServerId signer,
                                   std::span<const std::uint8_t> message) {
  ++counters_.signs;
  return mac(signer, message);
}

Bytes IdealSignatureProvider::prepare_to_sign(
    ServerId signer, std::span<const std::uint8_t> message) const {
  const auto inner = hmac_sha256_inner(seeds_[signer], message);
  return Bytes(inner.begin(), inner.end());
}

Bytes IdealSignatureProvider::sign_prepared(ServerId signer,
                                            const Bytes& prepared) {
  ++counters_.signs;
  const auto d = hmac_sha256_outer(seeds_[signer], prepared);
  return Bytes(d.begin(), d.end());
}

bool IdealSignatureProvider::verify(ServerId claimed,
                                    std::span<const std::uint8_t> message,
                                    std::span<const std::uint8_t> signature) {
  ++counters_.verifies;
  if (claimed >= seeds_.size()) return false;
  const Bytes expect = mac(claimed, message);
  return expect.size() == signature.size() &&
         std::equal(expect.begin(), expect.end(), signature.begin());
}

HmacSignatureProvider::HmacSignatureProvider(std::uint32_t n_servers,
                                             std::uint64_t seed) {
  // A shared root secret stands in for the out-of-band key ceremony of a
  // pre-shared-key deployment; per-server keys are domain-separated so a
  // leaked per-server key does not reveal any sibling's key.
  SplitMix64 sm(seed ^ 0x68'6d'61'63'73'69'67'76ULL);  // "hmacsigv"
  const Bytes root = derive_secret(sm);
  keys_.reserve(n_servers);
  static constexpr std::string_view kDomain = "blockdag-hmac-sig-v1";
  for (std::uint32_t i = 0; i < n_servers; ++i) {
    Writer w;
    w.raw(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(kDomain.data()), kDomain.size()));
    w.u32(i);
    const auto d = hmac_sha256(root, w.data());
    keys_.emplace_back(d.begin(), d.end());
  }
}

Bytes HmacSignatureProvider::tag(ServerId server,
                                 std::span<const std::uint8_t> message) const {
  const auto d = hmac_sha256(keys_[server], message);
  return Bytes(d.begin(), d.end());
}

Bytes HmacSignatureProvider::sign(ServerId signer,
                                  std::span<const std::uint8_t> message) {
  ++counters_.signs;
  return tag(signer, message);
}

Bytes HmacSignatureProvider::prepare_to_sign(
    ServerId signer, std::span<const std::uint8_t> message) const {
  const auto inner = hmac_sha256_inner(keys_[signer], message);
  return Bytes(inner.begin(), inner.end());
}

Bytes HmacSignatureProvider::sign_prepared(ServerId signer,
                                           const Bytes& prepared) {
  ++counters_.signs;
  const auto d = hmac_sha256_outer(keys_[signer], prepared);
  return Bytes(d.begin(), d.end());
}

bool HmacSignatureProvider::verify(ServerId claimed,
                                   std::span<const std::uint8_t> message,
                                   std::span<const std::uint8_t> signature) {
  ++counters_.verifies;
  if (claimed >= keys_.size()) return false;
  const Bytes expect = tag(claimed, message);
  if (expect.size() != signature.size()) return false;
  // Constant-time comparison: fold every byte difference before deciding.
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < expect.size(); ++i) diff |= expect[i] ^ signature[i];
  return diff == 0;
}

std::unique_ptr<SignatureProvider> make_signature_provider(SigScheme scheme,
                                                           std::uint32_t n_servers,
                                                           std::uint64_t seed) {
  switch (scheme) {
    case SigScheme::kHmac:
      return std::make_unique<HmacSignatureProvider>(n_servers, seed);
    case SigScheme::kWots:
      return std::make_unique<WotsSignatureProvider>(n_servers, seed);
    case SigScheme::kIdeal:
      break;
  }
  return std::make_unique<IdealSignatureProvider>(n_servers, seed);
}

}  // namespace blockdag
