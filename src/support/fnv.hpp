#pragma once

/// \file fnv.hpp
/// 64-bit FNV-1a, the one hash behind every digest in the system: run
/// output digests, the `.dsg` payload digest, the rendezvous handshake
/// digests and the serve digests. Those values cross process and build
/// boundaries, so each call site keeps the offset basis it has always used
/// (tests/test_digests.cpp pins them).

#include <cstddef>
#include <cstdint>

namespace ds {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// The standard 64-bit FNV offset basis (serve digests).
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
/// The standard basis with its last digit dropped — the basis of the
/// output, `.dsg` and rendezvous digests, kept so they stay bit-identical.
inline constexpr std::uint64_t kFnvShortBasis = 1469598103934665603ull;

/// Incremental FNV-1a: feed bytes or 64-bit words, read `h`.
struct Fnv1a {
  std::uint64_t h = kFnvBasis;

  void bytes(const void* data, std::size_t count) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < count; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
  }

  /// The word's eight bytes, least significant first on every host.
  void word(std::uint64_t w) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (w >> shift) & 0xFFull;
      h *= kFnvPrime;
    }
  }

  void words(const std::uint64_t* w, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) word(w[i]);
  }
};

}  // namespace ds
