#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace e2ebench {

std::vector<std::int64_t> poisson_due_times(std::uint64_t seed,
                                            std::size_t count,
                                            std::int64_t window_ns) {
  blockdag::Rng rng(seed ^ 0x6172726976616c73ULL);  // "arrivals"
  std::vector<double> gaps(count + 1);
  double total = 0;
  for (double& g : gaps) {
    g = -std::log1p(-rng.unit());  // Exp(1); unit() < 1 so log1p is finite
    total += g;
  }
  std::vector<std::int64_t> due(count);
  double at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    at += gaps[i];
    due[i] = static_cast<std::int64_t>(at / total * static_cast<double>(window_ns));
  }
  return due;
}

std::optional<double> percentile(std::vector<double>& samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0 || q >= 1) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

}  // namespace e2ebench
