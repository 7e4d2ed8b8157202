// FNV-1a 64 over a sequence of values: the digest that same-seed runs are
// compared by (end-state digests, soak and determinism tests, the kernel
// golden). Any divergence between two runs shows up in it.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace picloud::util {

class Fnv1a {
 public:
  // Folds the 8 bytes of `v`, least significant first.
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= kPrime;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= kPrime;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // offset basis
};

}  // namespace picloud::util
