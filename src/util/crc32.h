// Copyright 2026 The ONEX Reproduction Authors.
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
// guarding every write-ahead-log record (src/storage/wal.h), delta,
// manifest, FETCH frame and snapshot, so it runs over the whole base on
// every reopen and follower bootstrap. Portable slice-by-8 table code
// (eight bytes per step, no hardware intrinsics or CPU dispatch).

#ifndef ONEX_UTIL_CRC32_H_
#define ONEX_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace onex {

/// CRC-32 of `bytes[0..n)`. Equals zlib's crc32(0, bytes, n).
uint32_t Crc32(const void* bytes, size_t n);

/// Incremental form: feeds `bytes[0..n)` into a running checksum, so a
/// record's header and payload can be checksummed without concatenation.
/// Start from 0: Crc32Update(Crc32Update(0, a, na), b, nb) ==
/// Crc32(concat(a, b)).
uint32_t Crc32Update(uint32_t crc, const void* bytes, size_t n);

}  // namespace onex

#endif  // ONEX_UTIL_CRC32_H_
