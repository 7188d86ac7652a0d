#include "crypto/hmac.h"

#include <array>
#include <cstring>

namespace blockdag {

namespace {

constexpr std::size_t kBlock = 64;

// The key XORed with `pad` (0x36 inner, 0x5c outer), per RFC 2104.
std::array<std::uint8_t, kBlock> padded_key(std::span<const std::uint8_t> key,
                                            std::uint8_t pad) {
  std::array<std::uint8_t, kBlock> k_pad{};
  if (key.size() > kBlock) {
    const auto digest = Sha256::digest(key);
    std::memcpy(k_pad.data(), digest.data(), digest.size());
  } else {
    std::memcpy(k_pad.data(), key.data(), key.size());
  }
  for (std::uint8_t& b : k_pad) b = static_cast<std::uint8_t>(b ^ pad);
  return k_pad;
}

}  // namespace

Sha256::Digest hmac_sha256_inner(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message) {
  Sha256 inner;
  inner.update(padded_key(key, 0x36));
  inner.update(message);
  return inner.finalize();
}

Sha256::Digest hmac_sha256_outer(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> inner_digest) {
  Sha256 outer;
  outer.update(padded_key(key, 0x5c));
  outer.update(inner_digest);
  return outer.finalize();
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) {
  return hmac_sha256_outer(key, hmac_sha256_inner(key, message));
}

}  // namespace blockdag
