#include "util/crc32.h"

#include <array>

namespace onex {
namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the classic bytewise table; tables[k][b] is the CRC of
// byte b followed by k zero bytes, so eight table lookups advance the
// register over eight input bytes at once (slice-by-8).
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

/// Little-endian load of four bytes, whatever the host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* bytes, size_t n) {
  const auto& t = kTables;
  const auto* p = static_cast<const unsigned char*>(bytes);
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32(const void* bytes, size_t n) {
  return Crc32Update(0, bytes, n);
}

}  // namespace onex
