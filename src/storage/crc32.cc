#include "storage/crc32.h"

#include <array>

namespace chainsplit {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE

// Slice-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// table lookups fold eight input bytes into the CRC at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    uint32_t lo = LoadLe32(bytes) ^ crc;
    uint32_t hi = LoadLe32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace chainsplit
