#include "support/rng.hpp"

#include <bit>

#include "support/check.hpp"

namespace ds {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  // The first four outputs of a SplitMix64 generator started at `seed`.
  // splitmix64 is a bijection and the four inputs differ, so at most one
  // word is zero and the state is never the all-zero fixed point.
  for (std::uint64_t i = 0; i < 4; ++i) {
    state_[i] = splitmix64(seed + i * kGolden);
  }
}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the parent's seed with the stream id; double application keeps
  // adjacent streams well separated.
  return Rng(splitmix64(seed_ ^ splitmix64(stream + 0x5EEDull)));
}

std::uint64_t Rng::next_raw() {
  std::uint64_t* s = state_;
  const std::uint64_t result = std::rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = std::rotl(s[3], 45);
  return result;
}

std::uint64_t Rng::next_u64(std::uint64_t bound) {
  DS_CHECK(bound > 0);
  // Lemire, "Fast Random Integer Generation in an Interval" (2019): the high
  // word of raw * bound is uniform in [0, bound) once the low word rejects
  // the 2^64 mod bound values that would bias it.
  unsigned __int128 product =
      static_cast<unsigned __int128>(next_raw()) * bound;
  auto low = static_cast<std::uint64_t>(product);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      product = static_cast<unsigned __int128>(next_raw()) * bound;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_raw() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) { return next_double() < p; }

std::size_t Rng::next_index(std::size_t n) {
  DS_CHECK(n > 0);
  return static_cast<std::size_t>(next_u64(n));
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  shuffle(perm);
  return perm;
}

}  // namespace ds
