#pragma once

/// \file rng.hpp
/// Deterministic, splittable random number generation.
///
/// Every randomized algorithm in the library draws randomness through
/// `ds::Rng`. Experiments want (a) reproducibility given a master seed and
/// (b) *per-node independence that is stable under execution order* — a LOCAL
/// algorithm must behave as if every node flips its own coins. `Rng::fork`
/// derives an independent child stream from a (seed, stream-id) pair using a
/// SplitMix64 mixer, so per-node generators never depend on the order in
/// which other nodes were processed.
///
/// The engine is xoshiro256** (Blackman & Vigna) with its four state words
/// drawn from a SplitMix64 sequence of the seed. Bounded integers use
/// Lemire's multiply-and-reject method and doubles take the top 53 bits of a
/// raw draw, all written here rather than taken from `<random>`: a stream,
/// and so every output digest, is the same under any standard library.
/// A generator is 40 bytes and trivially copyable, so seeding one per node
/// (and per phase) costs nanoseconds.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ds {

/// Deterministic splittable RNG: xoshiro256** with stable stream derivation,
/// 40 bytes (the seed plus four state words).
class Rng {
 public:
  /// Creates a generator seeded with `seed`.
  explicit Rng(std::uint64_t seed = 0xD15751A17ull);

  /// Derives an independent child generator for stream `stream`.
  /// The mapping (seed, stream) -> child state is pure: forking the same
  /// stream twice yields identical generators.
  [[nodiscard]] Rng fork(std::uint64_t stream) const;

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t next_u64(std::uint64_t bound);

  /// Uniform integer over the full 64-bit range.
  std::uint64_t next_raw();

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with success probability p.
  bool next_bool(double p = 0.5);

  /// Uniform index into a container of size n. Requires n > 0.
  std::size_t next_index(std::size_t n);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = next_index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Returns a uniformly random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// The seed this generator was constructed from (for logging).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t state_[4];
};

/// SplitMix64 finalizer: the standard 64-bit mixing function used for
/// deriving independent streams.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace ds
