// HMAC-SHA256 (RFC 2104) — used by the ideal signature scheme and as the
// PRF for WOTS key derivation.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.h"

namespace blockdag {

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message);

// HMAC's two passes, for a caller that hashes a long message on one thread
// and finishes the tag on another: the inner pass does the O(message) work,
// the outer pass hashes one block and a digest.
// hmac_sha256(k, m) == hmac_sha256_outer(k, hmac_sha256_inner(k, m)).
Sha256::Digest hmac_sha256_inner(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);
Sha256::Digest hmac_sha256_outer(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> inner_digest);

}  // namespace blockdag
