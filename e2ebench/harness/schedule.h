// Seeded open-loop arrivals and the percentile rule.
//
// Both are pure functions of their inputs, so the benchmark's inputs are a
// function of --seed alone and the harness tests can pin them exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace e2ebench {

// Due times, in ns from the window start, of `count` Poisson arrivals in
// [0, window_ns): a Poisson process conditioned on its count, built from
// count+1 exponential gaps scaled to the window. The count is fixed (rate
// x window) so every seed offers the same load; only the spacing varies.
std::vector<std::int64_t> poisson_due_times(std::uint64_t seed,
                                            std::size_t count,
                                            std::int64_t window_ns);

// Nearest-rank percentile q in (0, 1) of `samples` (reordered in place).
// Empty unless at least kMinBeyond samples lie strictly beyond the rank,
// so a tail percentile is never read off a handful of points.
inline constexpr std::size_t kMinBeyond = 10;
std::optional<double> percentile(std::vector<double>& samples, double q);

}  // namespace e2ebench
