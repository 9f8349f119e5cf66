// Copyright 2026 The ONEX Reproduction Authors.
// Binary persistence for the ONEX base. The paper's one-time expensive
// preprocessing (Fig. 5) only pays off across sessions if the base can
// be stored and reloaded; this module gives the knowledge base a
// versioned on-disk format:
//
//   [magic "ONEX"][u32 version]
//   [dataset: name, N, per-series label + values]
//   [options: st, lengths, window_ratio, seed, sp flag]
//   [gti: per length -> thresholds, groups (rep, members), sums]
//
// All integers little-endian fixed width; doubles as IEEE-754 bits.
// Loading validates the magic, version, and structural invariants and
// returns Corruption on any mismatch. Envelopes are recomputed on load
// (cheaper to rebuild in O(n) than to store).
//
// Version 1 also stored each length's g x g Dc matrix between the
// groups and the sums. Version 2 drops it (no query reads Dc; it was
// over 90% of a large base's snapshot). Loading still accepts version 1
// and skips that block; saving always writes the current version.

#ifndef ONEX_CORE_SERIALIZATION_H_
#define ONEX_CORE_SERIALIZATION_H_

#include <string>

#include "core/onex_base.h"
#include "util/status.h"

namespace onex {

/// Current format version; bumped on layout changes.
inline constexpr uint32_t kOnexBaseFormatVersion = 2;

/// Writes `base` to `path`, overwriting. IOError on filesystem failure.
Status SaveBase(const OnexBase& base, const std::string& path);

/// Reads a base previously written by SaveBase. The returned base is
/// fully queryable (envelopes and derived stats are rebuilt).
Result<OnexBase> LoadBase(const std::string& path);

/// Serializes `base` into an in-memory buffer — byte-identical to the
/// file SaveBase would write. This is the snapshot-shadow step of the
/// incremental checkpointer (storage/storage.h): the engine writer lock
/// is held only for this memory serialization, never for disk I/O or
/// delta encoding.
Result<std::string> SaveBaseToString(const OnexBase& base);

/// Deserializes a buffer produced by SaveBaseToString (or read back
/// from a SaveBase file). Same validation as LoadBase: magic, version,
/// and every structural invariant, Corruption on any mismatch.
Result<OnexBase> LoadBaseFromBuffer(const std::string& buffer);

}  // namespace onex

#endif  // ONEX_CORE_SERIALIZATION_H_
