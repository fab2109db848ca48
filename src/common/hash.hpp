// Integrity-grade content hashing shared by the plan's B fingerprint
// and the PanelCache's panel checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace m3xu {

/// FNV-1a-style rolling hash over 64-bit words. Each step - xor the
/// word in, multiply by an odd constant, fold the high half down - is a
/// bijection of the state for a fixed word, so two inputs of equal
/// length that differ in a single word always hash differently. The
/// fold matters: without it a difference in a word's top bit stays in
/// the state's top bit for good, and two such differences cancel. Not
/// cryptographic.
struct WordHash {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 32;
  }

  /// Mixes `bytes` bytes as whole 64-bit words, then the tail bytes one
  /// step each.
  void mix_bytes(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= bytes; i += sizeof(std::uint64_t)) {
      std::uint64_t w;
      std::memcpy(&w, p + i, sizeof w);
      mix(w);
    }
    for (; i < bytes; ++i) mix(p[i]);
  }
};

}  // namespace m3xu
