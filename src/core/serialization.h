// Copyright 2026 The ONEX Reproduction Authors.
// Binary persistence for the ONEX base. The paper's one-time expensive
// preprocessing (Fig. 5) only pays off across sessions if the base can
// be stored and reloaded; this module gives the knowledge base a
// versioned on-disk format:
//
//   [magic "ONEX"][u32 version]
//   [dataset: name, N, per-series label + values]
//   [options: st, lengths, window_ratio, seed, sp flag]
//   [gti: per length -> header, groups, sums]
//
// Each GTI entry (version 3):
//
//   u64 length, f64 st_half, f64 st_final, u64 groups, u64 singletons
//   per group, in group-id order:
//     u32 member count n
//     n == 1: u32 series, u32 start           (a singleton: 12 bytes)
//     n >= 2: f64 representative[length],
//             n x (u32 series, u32 start, f64 ed_to_rep)
//   u64 sum count, then (u32 group id, f64 Dc row sum) ascending by sum
//
// A singleton's representative is its member, bit for bit, and its ED
// to it is 0, so neither is written; every member's length is the
// entry's.
//
// All integers little-endian fixed width; doubles as IEEE-754 bits.
// Loading validates the magic, version, and structural invariants and
// returns Corruption on any mismatch. Envelopes are recomputed on load
// (cheaper to rebuild in O(n) than to store).
//
// Older versions still load; saving always writes the current one.
// Version 1 also stored each length's g x g Dc matrix between the
// groups and the sums (no query reads Dc; it was over 90% of a large
// base's snapshot). Versions 1 and 2 write every group as a u64-prefixed
// representative, a u64 member count and 20-byte member records
// (series, start, length, ed_to_rep), singletons included: on a
// 100-series TwoPattern base, 72% of the groups are singletons and
// their representatives took 3.5 of the snapshot's 5.85 MB.

#ifndef ONEX_CORE_SERIALIZATION_H_
#define ONEX_CORE_SERIALIZATION_H_

#include <string>

#include "core/onex_base.h"
#include "util/status.h"

namespace onex {

/// Current format version; bumped on layout changes.
inline constexpr uint32_t kOnexBaseFormatVersion = 3;

/// Writes `base` to `path`, overwriting. IOError on filesystem failure.
Status SaveBase(const OnexBase& base, const std::string& path);

/// Reads a base previously written by SaveBase. The returned base is
/// fully queryable (envelopes and derived stats are rebuilt).
Result<OnexBase> LoadBase(const std::string& path);

/// Serializes `base` into an in-memory buffer — byte-identical to the
/// file SaveBase would write. This is the snapshot-shadow step of the
/// incremental checkpointer (storage/storage.h), run on a pinned
/// version of the base while queries and appends go on.
Result<std::string> SaveBaseToString(const OnexBase& base);

/// Deserializes a buffer produced by SaveBaseToString (or read back
/// from a SaveBase file). Same validation as LoadBase: magic, version,
/// and every structural invariant, Corruption on any mismatch.
Result<OnexBase> LoadBaseFromBuffer(const std::string& buffer);

}  // namespace onex

#endif  // ONEX_CORE_SERIALIZATION_H_
