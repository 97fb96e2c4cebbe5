#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ctflash::util {

namespace {
std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

void Xoshiro256StarStar::Reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // Guard against the (astronomically unlikely) all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Xoshiro256StarStar::UniformBelow(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("UniformBelow: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) % bound
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Xoshiro256StarStar::UniformInRange(std::uint64_t lo,
                                                 std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("UniformInRange: lo > hi");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return (*this)();  // full 64-bit range
  return lo + UniformBelow(span);
}

double Xoshiro256StarStar::UniformDouble() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Xoshiro256StarStar::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (theta < 0.0) throw std::invalid_argument("ZipfSampler: theta must be >= 0");
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& v : cdf_) v /= sum;
  cdf_.back() = 1.0;  // guard against fp round-off at the tail
  if (n > std::numeric_limits<std::uint32_t>::max()) return;
  guide_.resize(n / 8);
  const double buckets = static_cast<double>(guide_.size());
  std::size_t bucket = 0;
  double bucket_start = 0.0;  // bucket / buckets
  for (std::uint64_t i = 0; i < n && bucket < guide_.size(); ++i) {
    // Every bucket starting at or below cdf_[i] and not yet claimed starts
    // its search at rank i.
    while (bucket < guide_.size() && bucket_start <= cdf_[i]) {
      guide_[bucket++] = static_cast<std::uint32_t>(i);
      bucket_start = static_cast<double>(bucket) / buckets;
    }
  }
}

std::uint64_t ZipfSampler::RankOf(double u) const {
  std::uint64_t lo = 0, hi = n_ - 1;
  if (!guide_.empty()) {
    const std::size_t j = std::min(
        static_cast<std::size_t>(u * static_cast<double>(guide_.size())),
        guide_.size() - 1);
    lo = guide_[j];
    if (j + 1 < guide_.size()) hi = guide_[j + 1];
    // u * G rounds, so u may sit just outside bucket j: widen to the full
    // table whenever the bucket does not bracket the answer.
    if (lo > 0 && cdf_[lo - 1] >= u) lo = 0;
    if (cdf_[hi] < u) hi = n_ - 1;
  }
  // Binary search for the first cdf_[i] >= u.
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfSampler::Pmf(std::uint64_t rank) const {
  if (rank >= n_) throw std::out_of_range("ZipfSampler::Pmf: rank out of range");
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

double ZipfSampler::Cdf(std::uint64_t rank) const {
  if (rank >= n_) throw std::out_of_range("ZipfSampler::Cdf: rank out of range");
  return cdf_[rank];
}

}  // namespace ctflash::util
