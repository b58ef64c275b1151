// Order-sensitive 64-bit hashing of simulated outputs. The digests only have
// to be equal for equal outputs and differ, with high probability, for
// different ones; they are not persisted across versions of the harness.

#ifndef PERFBENCH_HASH_H
#define PERFBENCH_HASH_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace perfbench {

class Hasher {
 public:
  Hasher& u64(std::uint64_t v) {
    h_ = mix(h_ ^ v);
    return *this;
  }
  Hasher& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Hasher& str(std::string_view s) {
    u64(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t chunk = 0;
      std::memcpy(&chunk, s.data() + i, s.size() - i < 8 ? s.size() - i : 8);
      u64(chunk);
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  // splitmix64's finalizer.
  static std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t h_ = 0x243f6a8885a308d3ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_HASH_H
