// Copyright 2026 The ONEX Reproduction Authors.
// The ONEX write-ahead log: durability for live base maintenance. The
// paper's expensive one-time grouping (Fig. 5) is amortized across many
// interactive sessions, and Algorithm 1 supports live appends — but an
// in-memory append is lost the moment the process dies. The WAL closes
// that gap: every acknowledged append is written (and fsync'd) here
// BEFORE it mutates the in-memory base, so recovery is snapshot-load
// plus WAL-replay (src/storage/storage.h drives that pairing).
//
// On-disk format (all integers little-endian fixed width, doubles as
// IEEE-754 bits — matching core/serialization.cc):
//
//   header:  [magic "OWAL"][u32 version][u64 snapshot_series]
//   record:  [u32 payload_bytes][u32 crc32(payload)][payload]
//   payload: [u8 type = kAppendSeries][u32 label][u64 n][n x f64 values]
//
// `snapshot_series` is the series count of the snapshot this log was
// started against: record i of the log creates series index
// `snapshot_series + i`. Replay after a crash between "snapshot
// renamed" and "WAL rotated" therefore skips records the newer snapshot
// already contains instead of appending duplicates.
//
// Torn-tail tolerance: a crash mid-write leaves a final record with a
// short payload or a CRC mismatch. ReadWal stops at the first invalid
// record, reports everything before it, and returns the byte offset of
// the valid prefix so the writer can truncate the tail before appending
// new records (otherwise post-crash appends would hide behind the torn
// record and be unreachable at the next replay).

#ifndef ONEX_STORAGE_WAL_H_
#define ONEX_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/time_series.h"
#include "util/status.h"

namespace onex {
namespace storage {

/// Format version, bumped on layout changes.
inline constexpr uint32_t kWalFormatVersion = 1;

/// Record types. Only appends today; the u8 leaves room for future
/// maintenance records (deletes, relabels) without a format bump.
enum class WalRecordType : uint8_t {
  kAppendSeries = 1,
};

/// Appends records to one log file. Not thread-safe: the caller
/// serializes access (DurableEngine holds its WAL mutex around every
/// use). Movable, not copyable.
class WalWriter {
 public:
  /// Creates (or truncates) the log at `path` with a fresh header and
  /// fsyncs it, so the header itself survives a crash.
  static Result<WalWriter> Create(const std::string& path,
                                  uint64_t snapshot_series);

  /// Opens an existing log for appending at `offset` (the valid-prefix
  /// end reported by ReadWal), on top of the `records` valid records
  /// before it. The file is truncated to `offset` first, discarding any
  /// torn tail so new records stay reachable.
  static Result<WalWriter> OpenForAppend(const std::string& path,
                                         uint64_t offset, uint64_t records);

  /// A default-constructed writer is closed; assign an opened one in.
  WalWriter() = default;
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Writes one append record (buffered in the kernel, not yet
  /// durable). Call Sync() to make every prior append durable — one
  /// Sync after N appends is the group commit.
  Status Append(const TimeSeries& series);

  /// fsync: every previously appended record is on stable storage when
  /// this returns OK.
  Status Sync();

  /// Truncates the log back to `bytes` (a value previously returned by
  /// bytes()), discarding `discarded_records` trailing records. Used to
  /// roll back a record whose commit fsync failed: the caller reported
  /// that append as failed, so its bytes must not linger and become
  /// durable via a LATER append's fsync (recovery would resurrect a
  /// series the client was told did not land). If the truncate itself
  /// fails the writer is poisoned (closed): every subsequent append
  /// fails rather than risk acknowledging on top of untracked bytes.
  /// Either way bytes() and records() afterwards describe the log
  /// without the discarded records.
  Status Rollback(uint64_t bytes, uint64_t discarded_records);

  /// Current log size in bytes (header included) and records appended
  /// through this writer plus any it was opened on top of.
  uint64_t bytes() const { return bytes_; }
  uint64_t records() const { return records_; }

  /// Closes the descriptor (final Sync NOT implied).
  void Close();

 private:
  int fd_ = -1;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
};

/// Everything ReadWal recovered from one log file.
struct WalContents {
  /// Series count of the snapshot the log was started against.
  uint64_t snapshot_series = 0;
  /// Valid records, in append order.
  std::vector<TimeSeries> records;
  /// File offset just past the last valid record — pass to
  /// WalWriter::OpenForAppend to continue the log.
  uint64_t valid_bytes = 0;
  /// True when a torn or corrupt tail was detected (and ignored).
  bool tail_torn = false;
};

/// Replays `path`. Semantics:
///   - missing file                -> NotFound;
///   - file shorter than a header  -> OK, empty, tail_torn (a crash
///     during rotation can leave a partial header; the snapshot is
///     still intact, so this is recoverable);
///   - bad magic / version         -> Corruption (not an ONEX WAL);
///   - torn / corrupt record       -> OK: every record before it is
///     returned, the tail is flagged. "Corrupt tail" includes a CRC
///     mismatch mid-file — replay never continues past unverifiable
///     bytes, because record boundaries after them cannot be trusted.
Result<WalContents> ReadWal(const std::string& path);

}  // namespace storage
}  // namespace onex

#endif  // ONEX_STORAGE_WAL_H_
