#pragma once

/// \file stats.h
/// The benchmark's own statistics: nearest-rank percentiles, the tail
/// percentile a sample count can support, and the seeded request streams
/// (Zipf draws, Poisson arrival schedules) of the serve workloads.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// The value at rank ceil(p/100 * n), so exactly n - rank samples lie
/// beyond it.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 50, 90, 99, 99.9 and 99.99 that has at least ten
/// samples beyond it at sample count `n`; 0 when not even the median has.
double tail_percentile(std::size_t n);

/// `count` ranks in [0, pool) drawn Zipf(s): rank r has weight 1/(r+1)^s.
std::vector<std::uint32_t> zipf_stream(std::uint64_t seed, std::size_t pool,
                                       double s, std::size_t count);

/// `count` pool indices from `campaigns` concurrent campaigns: each
/// request picks a campaign uniformly, then a rank Zipf(s) within that
/// campaign's `per_campaign` scripts; index = campaign * per_campaign +
/// rank. Several Zipf heads instead of one keep the stream's cost from
/// hinging on the few scripts a seed happens to put at the top ranks.
std::vector<std::uint32_t> campaign_stream(std::uint64_t seed,
                                           std::size_t campaigns,
                                           std::size_t per_campaign, double s,
                                           std::size_t count);

/// Open-loop arrival offsets (seconds from the start) of a Poisson process
/// at `rate` per second over `duration` seconds.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double duration);

}  // namespace perfbench
