// Copyright 2026 The ONEX Reproduction Authors.
// DurableEngine: the pairing of an onex::Engine with a write-ahead log
// (storage/wal.h) and the existing SaveBase/LoadBase snapshot format
// (core/serialization.h) that makes live base maintenance survive
// process death. The contract: every append acknowledged with OK is
// recoverable — reopen the same <dir>/<name> and the series is there,
// fully queryable.
//
// Mechanics:
//   - Appends are WRITE-AHEAD: the engine (durable mode) logs each
//     series to the WAL — fsync'd per append, or once per group-commit
//     batch — before mutating the in-memory base. A WAL failure aborts
//     the append unapplied.
//   - Recovery (Open) is snapshot-load + WAL-replay. Records the
//     snapshot already contains (crash between "snapshot renamed" and
//     "WAL rotated") are skipped by sequence number; a torn or corrupt
//     tail is tolerated up to the last valid record and truncated so
//     new appends stay reachable.
//   - A background CHECKPOINTER thread checkpoints and rotates the WAL
//     once the log exceeds a byte/record threshold (replay time is
//     proportional to log length; checkpoints bound it). Every file is
//     replaced via write-temp-then-rename, so a crash at any instant
//     leaves a recoverable set.
//   - Checkpoints are INCREMENTAL: the base is serialized to a memory
//     shadow under a brief writer-lock hold, then a binary delta
//     against the previous snapshot (storage/delta.h) is encoded and
//     published OUTSIDE every engine lock; a second brief hold rotates
//     the WAL and re-logs whatever appends landed mid-encode. Recovery
//     applies the chain in place on top of the base, then replays the
//     WAL tail; the chain is compacted into a fresh full snapshot past
//     a length/bytes budget.
//     A crash between delta publish and WAL rotation is covered by the
//     existing sequence-number skip (the old log pairs with the newer
//     chain); a crash between compaction publish and stale-delta
//     removal is recognized at recovery by the leftover delta's intact
//     header not matching the new base (ignored, not degraded).
//
// Locking: all WAL-writer state is touched only under the engine's
// writer lock (appends via the AppendSink hook, rotation via
// Engine::Exclusive), so checkpoints and appends serialize without a
// lock-order cycle. Chain state (previous-snapshot shadow, link list)
// is guarded by checkpoint_mutex_, which also serializes explicit and
// background checkpoints.
//
// Ownership: DurableEngine owns the Engine; engine() hands out aliased
// shared_ptrs that keep the whole durable stack (WAL, checkpointer)
// alive, so a server session can outlive a catalog eviction safely.

#ifndef ONEX_STORAGE_STORAGE_H_
#define ONEX_STORAGE_STORAGE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "storage/append_sink.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace onex {
namespace storage {

struct StorageOptions {
  /// Checkpoint once the WAL exceeds either bound (0 = unbounded).
  uint64_t checkpoint_wal_bytes = 8ull << 20;
  uint64_t checkpoint_wal_records = 4096;
  /// Run the background checkpointer thread. Off, checkpoints happen
  /// only via explicit Checkpoint() calls (tests use this to pin down
  /// "crash before checkpoint" states).
  bool background_checkpointer = true;
  /// fsync the WAL once per logged append (a group-commit batch,
  /// Engine::AppendBatch, is one append: one fsync covers it). Turning
  /// this off trades the durability of the last few appends for
  /// throughput (the bench quantifies it).
  bool sync_appends = true;
  /// Test-only fault injection: when set, every LogAppend consults it
  /// before touching the WAL and fails with the returned non-OK status
  /// — the deterministic way to flip wal_write_failed (HEALTH
  /// readiness) without breaking a real file descriptor.
  std::function<Status()> wal_fault_injection;
  /// Compact the chain (fold every delta into a fresh full snapshot,
  /// written from the shadow outside the engine lock) once it would
  /// hold more deltas than this (0 = unbounded) or more than 64 MiB of
  /// them. Bounds recovery and follower-bootstrap time.
  uint64_t max_delta_chain_length = 8;
  /// Leader-side delta garbage collection. 0 (default): artifacts a
  /// compaction orphans are unlinked immediately (the
  /// historical behavior). > 0: they are RETIRED instead — left on
  /// disk, still servable to a follower mid-FETCH against an older
  /// manifest — and unlinked only once this many seconds have passed
  /// since retirement (swept on every checkpoint publish and by
  /// CollectGarbage()). A retired name that a later delta publish
  /// reuses leaves the retirement list at that moment: the bytes on
  /// disk are live again, not reclaimable.
  double delta_gc_grace_s = 0.0;
};

/// Point-in-time counters for STATS replies, tests, and the bench.
struct StorageStats {
  uint64_t appends = 0;          ///< Series appended through this object.
  uint64_t wal_records = 0;      ///< Records in the live WAL.
  uint64_t wal_bytes = 0;        ///< Live WAL size, header included.
  uint64_t checkpoints = 0;      ///< Snapshot+rotate cycles completed.
  uint64_t replayed_records = 0; ///< Records applied during Open.
  uint64_t skipped_records = 0;  ///< Replay records already in the snapshot.
  bool recovered_torn_tail = false;  ///< Open found (and dropped) a torn tail.
  /// Seconds since the last checkpoint COMPLETED in this process;
  /// negative when none has (freshly opened, or checkpointing disabled).
  double checkpoint_age_seconds = -1.0;
  double checkpoint_last_duration_seconds = 0.0;
  /// Sticky-until-recovery: the most recent WAL write (append or sync)
  /// failed and no later one has succeeded. While true the engine
  /// cannot acknowledge durable appends — the HEALTH verb's readiness
  /// check fails on it so a router drains the node.
  bool wal_write_failed = false;
  // ---- incremental-checkpoint facts.
  uint64_t delta_checkpoints = 0;   ///< Checkpoints published as deltas.
  uint64_t chain_compactions = 0;   ///< Full rewrites folding the chain.
  uint64_t delta_chain_length = 0;  ///< Deltas currently after the base.
  uint64_t delta_chain_bytes = 0;   ///< Their on-disk bytes, summed.
  uint64_t last_delta_bytes = 0;    ///< Size of the newest delta artifact.
  /// Series covered by base + chain == the live WAL's sequence base.
  uint64_t snapshot_series = 0;
  /// Engine writer-lock hold time of the last checkpoint — the number
  /// incremental checkpoints exist to shrink (perfbench's
  /// storage.checkpoint_lock_hold_ms).
  double checkpoint_lock_hold_seconds = 0.0;
  /// Recovery degraded to the last valid chain prefix (corrupt or torn
  /// delta artifact dropped — state may predate the newest checkpoint).
  bool degraded_recovery = false;
  // ---- delta-GC facts (zero unless delta_gc_grace_s > 0).
  uint64_t gc_reclaimed_bytes = 0;    ///< Retired bytes unlinked so far.
  uint64_t gc_pending_artifacts = 0;  ///< Retired files inside the grace.
};

/// One published delta artifact in the live chain, in apply order.
struct ChainLink {
  std::string path;
  uint64_t bytes = 0;    ///< On-disk artifact size.
  uint32_t new_crc = 0;  ///< crc32 of the snapshot state it produces.
};

/// Point-in-time description of the on-disk snapshot chain — what the
/// consistent-cut manifest records per dataset and a follower fetches.
struct ChainStatus {
  std::string base_path;
  uint64_t base_bytes = 0;
  uint32_t base_crc = 0;  ///< crc32 of the base snapshot file.
  std::vector<ChainLink> deltas;
  /// Series covered by base + deltas; the live WAL starts here.
  uint64_t wal_sequence_base = 0;
};

/// `<dir>/<name>.onex` — the snapshot (serialization.h format, shared
/// with Engine::Save and the server catalog).
std::string BasePathFor(const std::string& dir, const std::string& name);
/// `<dir>/<name>.wal` — the write-ahead log.
std::string WalPathFor(const std::string& dir, const std::string& name);
/// `<dir>/<name>.onex.delta.<k>` — the k-th delta artifact (k >= 1),
/// applied in order on top of the base snapshot at recovery.
std::string DeltaPathFor(const std::string& dir, const std::string& name,
                         uint64_t k);

/// fsyncs an already-written file by path. Every write-temp-then-rename
/// snapshot publish (checkpoint, non-durable catalog flush) needs this
/// between the write and the rename: SaveBase writes through ofstream,
/// which never syncs, and a rename can commit before the data blocks do.
Status SyncFile(const std::string& path);

/// fsyncs a DIRECTORY, making renames and file creations inside it
/// durable. The temp+fsync+rename dance syncs the file's bytes but not
/// the directory entry pointing at them — on some filesystems a crash
/// right after the rename can roll the directory back to the old entry
/// (or, for a fresh WAL, to no entry at all). Called after every rename
/// or create that a recovery depends on.
Status SyncDir(const std::string& dir);

/// The directory containing `path` ("." when it has no separator).
std::string DirOf(const std::string& path);

class DurableEngine : public AppendSink,
                      public std::enable_shared_from_this<DurableEngine> {
 public:
  /// Makes an in-memory engine durable under `<dir>/<name>`: writes the
  /// initial snapshot, starts an empty WAL, attaches the write-ahead
  /// sink, and (by default) the checkpointer thread. Overwrites any
  /// previous pair of files.
  static Result<std::shared_ptr<DurableEngine>> Create(
      const std::string& dir, const std::string& name, Engine engine,
      const StorageOptions& options = {});

  /// Recovery: loads the snapshot, replays the WAL up to the last valid
  /// record (torn tails truncated, already-snapshotted records
  /// skipped), and resumes logging where the valid prefix ended.
  /// NotFound when no snapshot exists; Corruption when snapshot or WAL
  /// are unreadable beyond repair.
  static Result<std::shared_ptr<DurableEngine>> Open(
      const std::string& dir, const std::string& name,
      const StorageOptions& options = {});

  ~DurableEngine() override;
  DurableEngine(const DurableEngine&) = delete;
  DurableEngine& operator=(const DurableEngine&) = delete;

  /// The queryable engine. The returned pointer shares ownership of
  /// this DurableEngine, so holding it keeps the WAL open and the
  /// checkpointer running.
  std::shared_ptr<Engine> engine();
  std::shared_ptr<const Engine> const_engine();

  /// Durable append (sugar over engine()->AppendSeries; the
  /// write-ahead ordering lives in the engine's durable mode). Group
  /// commits go through engine()->AppendBatch.
  Status Append(TimeSeries series);

  /// Checkpoints the engine, atomically with respect to appends. The
  /// engine writer lock is held only for the in-memory serialization
  /// and the WAL rotation — disk I/O, fsyncs, and delta encoding run
  /// outside it.
  Status Checkpoint();

  StorageStats stats() const;
  /// Delta GC: unlinks every retired artifact whose grace period has
  /// elapsed (see StorageOptions::delta_gc_grace_s) and returns how
  /// many were unlinked. Also runs automatically at the end of every
  /// Checkpoint() — each publish is a fresh manifest no retired name
  /// appears in, which is what starts (and eventually ends) the clock.
  size_t CollectGarbage();
  /// The on-disk artifact set a manifest records and a follower
  /// fetches: base snapshot, delta chain, WAL sequence base. Taken
  /// under checkpoint_mutex_, so it is internally consistent with
  /// respect to concurrent checkpoints.
  ChainStatus chain_status() const;
  const std::string& base_path() const { return base_path_; }
  const std::string& wal_path() const { return wal_path_; }

  // AppendSink — called by the engine under its writer lock. Not for
  // direct use.
  Status LogAppend(std::span<const TimeSeries> batch) override;

  /// Construction token: the factories need make_shared on an
  /// effectively-private constructor.
  struct Private {};
  DurableEngine(Private, Engine engine, WalWriter wal, StorageOptions options,
                std::string base_path, std::string wal_path);

 private:
  /// Spin up the sink attachment and (optionally) the checkpointer;
  /// shared tail of both factories. Unchecked: runs before the object
  /// is shared with any other thread, so the guarded wal_ access is
  /// single-threaded by construction.
  void Start() NO_THREAD_SAFETY_ANALYSIS;

  void CheckpointerLoop();
  bool OverThreshold() const;

  /// Checkpoint body: brief-lock shadow serialization, out-of-lock
  /// delta publish (or chain compaction), brief-lock WAL rotation with
  /// mid-encode appends re-logged.
  Status CheckpointIncremental() REQUIRES(checkpoint_mutex_);

  /// Phase 2 of the incremental path: rotate the WAL to sequence base
  /// `series` and re-log every engine series at index >= `series`
  /// (appends that landed while the delta was encoding). Runs under
  /// the engine writer lock via Exclusive (an untyped std::function
  /// boundary — it opens with engine_.mu().AssertHeld(), the
  /// analysis-visible form of that contract).
  Status RotateWalLocked(const OnexBase& base, uint64_t series);

  /// Removes every `<base>.onex.delta.<k>` on disk from k = `from` up
  /// (stale artifacts after a compaction or a re-persist).
  void RemoveDeltaFiles(uint64_t from) const;

  /// Compaction hand-off for the orphaned chain: unlink
  /// immediately (grace 0) or move every live link onto the retirement
  /// list with a timestamp. Caller clears chain_ afterwards.
  void RetireChainLocked() REQUIRES(checkpoint_mutex_);

  /// Unlinks retired artifacts past the grace period; returns the
  /// count. Skips nothing silently: a name re-taken by a newer delta
  /// was already dropped from the list at publish time.
  size_t SweepRetiredLocked() REQUIRES(checkpoint_mutex_);

  Engine engine_;
  /// All WAL-writer state is touched only under the engine's WRITER
  /// lock: appends arrive through the AppendSink hook (write-ahead,
  /// inside the engine's append path) and rotation runs via
  /// Engine::Exclusive — so checkpoints and appends serialize without
  /// a lock-order cycle.
  WalWriter wal_ GUARDED_BY(engine_.mu());
  StorageOptions options_;
  const std::string base_path_;
  const std::string wal_path_;

  /// Counters mirrored atomically so stats() and the checkpointer
  /// predicate read them without the engine lock.
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> checkpoints_{0};
  /// Sticky WAL-health flag: set when an append/sync fails, cleared by
  /// the next success. stats() surfaces it; HEALTH gates readiness on
  /// it (see StorageStats::wal_write_failed).
  std::atomic<bool> wal_write_failed_{false};
  /// Steady-clock ns of the last completed checkpoint (0 = never) and
  /// how long it held the writer lock — the METRICS gauges for
  /// checkpoint age and duration read these without any lock.
  std::atomic<int64_t> last_checkpoint_ns_{0};
  std::atomic<int64_t> last_checkpoint_duration_ns_{0};
  // Recovery facts, written once in Open before the object is shared.
  uint64_t replayed_records_ = 0;
  uint64_t skipped_records_ = 0;
  bool recovered_torn_tail_ = false;
  bool degraded_recovery_ = false;

  // Incremental-checkpoint counters (atomics: stats() reads them
  // without the chain lock).
  std::atomic<uint64_t> delta_checkpoints_{0};
  std::atomic<uint64_t> chain_compactions_{0};
  std::atomic<uint64_t> chain_length_{0};
  std::atomic<uint64_t> chain_bytes_{0};
  std::atomic<uint64_t> last_delta_bytes_{0};
  std::atomic<int64_t> last_lock_hold_ns_{0};
  /// Series covered by base + chain (== the live WAL's sequence base).
  std::atomic<uint64_t> snapshot_series_{0};

  /// Serializes explicit Checkpoint() calls against the background one
  /// and guards the chain state below. Above kEngine: held across
  /// Engine::Exclusive. (The catalog may hold its registry mutex while
  /// checkpointing a dirty victim, hence kCatalog < kStorageCheckpoint.)
  mutable Mutex checkpoint_mutex_{LockRank::kStorageCheckpoint,
                                  "storage.checkpoint_mutex"};
  /// Serialized bytes of the last checkpointed state — the encoder's
  /// "old" side. Kept resident so successive deltas never re-read the
  /// chain from disk; one serialized snapshot per durable engine is
  /// the leader-side price of delta encoding. Both factories seed it.
  std::string prev_snapshot_ GUARDED_BY(checkpoint_mutex_);
  /// Live chain description, in apply order (also written pre-share by
  /// the factories).
  std::vector<ChainLink> chain_ GUARDED_BY(checkpoint_mutex_);
  uint64_t base_bytes_ GUARDED_BY(checkpoint_mutex_) = 0;
  uint32_t base_crc_ GUARDED_BY(checkpoint_mutex_) = 0;
  /// Artifacts no published manifest names any more, kept on disk for
  /// the delta-GC grace period so a follower mid-fetch on an older
  /// manifest still succeeds.
  struct RetiredArtifact {
    std::string path;
    uint64_t bytes = 0;
    std::chrono::steady_clock::time_point retired_at;
  };
  std::vector<RetiredArtifact> retired_ GUARDED_BY(checkpoint_mutex_);
  std::atomic<uint64_t> gc_reclaimed_bytes_{0};
  std::atomic<uint64_t> gc_pending_artifacts_{0};

  /// Checkpointer thread plumbing. Above kEngine: the append sink
  /// pokes the checkpointer while the engine writer lock is held.
  Mutex cp_mutex_{LockRank::kStorageCp, "storage.cp_mutex"};
  CondVar cp_cv_;
  bool stop_ GUARDED_BY(cp_mutex_) = false;
  std::thread checkpointer_;
};

}  // namespace storage
}  // namespace onex

#endif  // ONEX_STORAGE_STORAGE_H_
