#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

std::vector<std::uint32_t> zipf_stream(std::uint64_t seed, std::size_t pool,
                                       double s, std::size_t count) {
  std::vector<double> weights(pool);
  for (std::size_t r = 0; r < pool; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  // Inverse-CDF sampling on a fixed-width generator keeps the stream
  // identical across standard libraries (std::discrete_distribution is
  // implementation-defined).
  std::vector<double> cdf(pool);
  double acc = 0.0;
  for (std::size_t r = 0; r < pool; ++r) cdf[r] = (acc += weights[r]);
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 * acc;
    out[i] = static_cast<std::uint32_t>(
        std::min<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                  cdf.begin(),
                              pool - 1));
  }
  return out;
}

std::vector<std::uint32_t> campaign_stream(std::uint64_t seed,
                                           std::size_t campaigns,
                                           std::size_t per_campaign, double s,
                                           std::size_t count) {
  std::vector<std::uint32_t> out = zipf_stream(seed, per_campaign, s, count);
  std::mt19937_64 rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  for (std::uint32_t& r : out) {
    r += static_cast<std::uint32_t>((rng() % campaigns) * per_campaign);
  }
  return out;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double duration) {
  std::mt19937_64 rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= duration) break;
    out.push_back(t);
  }
  return out;
}

}  // namespace perfbench
