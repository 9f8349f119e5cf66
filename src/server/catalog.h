// Copyright 2026 The ONEX Reproduction Authors.
// Multi-dataset engine registry for the serving layer. Interactive
// exploration spans many datasets at once (stocks + ECG + tax series in
// one deployment), but an ONEX base is memory-heavy, so the catalog
// mediates: sessions name datasets ("use ecg"), the catalog lazily
// opens the persisted base from its data directory on first touch,
// shares the live engine across every session via shared_ptr, and
// LRU-evicts idle disk-backed engines once more than `max_open_engines`
// are resident. A session holding a shared_ptr keeps its engine alive
// across eviction — eviction only drops the catalog's reference, so the
// base is reopened for the NEXT acquirer.
//
// Durability: with `durable` set (and a data_dir), engines are opened
// through storage::DurableEngine — appends are write-ahead logged and
// recovery replays the WAL — and the APPEND/FLUSH wire verbs route
// through Append()/Flush() here. Without durable mode, appends mutate
// memory only and mark the entry DIRTY; a dirty non-durable engine is
// never silently evicted (it is refused, with a warning), because
// eviction would discard every unsaved append. Dirty durable engines
// are checkpointed and then evicted.
//
// Naming: dataset `name` maps to file `<data_dir>/<name>.onex` (the
// serialization.h format; durable mode adds `<name>.wal`). Engines can
// also be Register()ed directly — built in-process — and those are
// pinned: they count against the cap but are never evicted. In durable
// mode with a data_dir, Register also persists the engine (initial
// snapshot + WAL), so even pinned demo datasets survive restarts.
//
// Thread-safety: all methods are safe to call concurrently; one mutex
// guards the registry (engine opening runs under it — opening is rare
// and sessions touch the catalog only at `use` time, never per query).
// Explicit Appends and Flushes run OUTSIDE the registry mutex — they
// can be slow (DTW maintenance, snapshot writes) and must not stall
// Acquire. The one exception is the pre-eviction checkpoint of a dirty
// durable victim, which runs under the mutex: eviction is rare and the
// alternative (releasing the lock mid-eviction) would let the victim be
// re-acquired half-dropped. Tracked as a ROADMAP open item alongside
// non-blocking checkpoints.

#ifndef ONEX_SERVER_CATALOG_H_
#define ONEX_SERVER_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "storage/manifest.h"
#include "storage/storage.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace onex {
namespace server {

struct CatalogOptions {
  /// Directory scanned for `<name>.onex` bases; empty = no disk backing
  /// (only Register()ed engines resolve).
  std::string data_dir;
  /// Resident-engine cap enforced by LRU eviction.
  size_t max_open_engines = 8;
  /// Open engines with WAL durability (requires data_dir for lazy
  /// opens; Register()ed engines fall back to memory-only when no
  /// data_dir is set).
  bool durable = false;
  /// Follower mode: Append/Flush/CheckpointAll are refused (the data
  /// directory is owned by the replication syncer, which swaps
  /// artifacts underneath and calls Invalidate). Queries still serve.
  bool read_only = false;
  /// Durable-mode knobs (checkpoint thresholds, sync policy).
  storage::StorageOptions storage;
};

/// Point-in-time counters for the STATS verb and tests.
struct CatalogStats {
  uint64_t lazy_opens = 0;  ///< Engine opens that succeeded.
  uint64_t hits = 0;        ///< Acquires served by a resident engine.
  uint64_t evictions = 0;   ///< Engines dropped by the LRU cap.
  uint64_t appends = 0;     ///< Series appended through Append().
  uint64_t flushes = 0;     ///< Explicit Flush() calls that succeeded.
  /// Dirty engines checkpointed/saved right before eviction.
  uint64_t flush_evictions = 0;
  /// Dirty non-durable engines the LRU wanted to evict but refused to
  /// (eviction would have discarded unsaved appends).
  uint64_t refused_evictions = 0;
  size_t resident = 0;  ///< Currently open engines.
};

/// One catalog row for LIST replies.
struct CatalogEntryInfo {
  std::string name;
  bool resident = false;
  bool pinned = false;   ///< Register()ed in-memory engine (not evictable).
  bool durable = false;  ///< Backed by a WAL (appends survive crashes).
  bool dirty = false;    ///< Has appends newer than its on-disk snapshot.
};

/// What one Append() did, for the wire reply.
struct AppendOutcome {
  size_t series = 0;   ///< Index the new series landed at.
  size_t total = 0;    ///< Series count after the append.
  bool durable = false;  ///< True when the append is crash-safe (WAL'd).
};

class Catalog {
 public:
  explicit Catalog(CatalogOptions options = {});

  /// Registers an in-process engine under `name` (replacing any previous
  /// entry). The engine is pinned: never evicted. In durable mode with a
  /// data_dir, the engine is also persisted (snapshot + WAL) so appends
  /// to it survive restarts; if persisting fails the registration is
  /// dropped with a warning (a durable catalog must not serve datasets
  /// it cannot recover). If `name` ALREADY has durable data on disk,
  /// the offered engine is discarded and the on-disk state is recovered
  /// instead — registering must never truncate previously acknowledged
  /// appends (delete the `<name>.onex`/`<name>.wal` pair first to
  /// rebuild a dataset from scratch).
  void Register(const std::string& name, Engine engine);

  /// Resolves `name` to a live engine: resident -> shared, evicted or
  /// never-opened -> lazily opened from `<data_dir>/<name>.onex` (with
  /// WAL replay in durable mode). NotFound when the name is neither
  /// registered nor on disk.
  Result<std::shared_ptr<const Engine>> Acquire(const std::string& name);

  /// Appends one series to dataset `name` (resolving it like Acquire).
  /// Durable entries log WAL-first — when this returns OK the append
  /// survives process death; non-durable entries mutate memory and mark
  /// the entry dirty.
  Result<AppendOutcome> Append(const std::string& name, TimeSeries series);

  /// Forces dataset `name` to stable storage: checkpoint (durable) or
  /// snapshot save (non-durable, needs a data_dir — NotSupported
  /// otherwise). Clears the dirty flag.
  Status Flush(const std::string& name);

  /// Flushes every RESIDENT dirty entry (never lazily opens anything).
  /// The WAL-aware shutdown path: onex_server calls this on SIGTERM so
  /// every durable dataset gets a final checkpoint and the next startup
  /// is replay-free. Returns the number flushed; per-entry failures are
  /// logged and skipped (shutdown must not abort on one bad disk).
  size_t FlushAll();

  /// The consistent cut: checkpoints EVERY durable dataset — resident
  /// or on disk (non-resident ones are lazily opened, cut, and left to
  /// the LRU) — then publishes `<data_dir>/onex_manifest.json` naming
  /// the resulting artifact set (base + delta chain + WAL, with sizes
  /// and CRCs). Any checkpoint failure aborts WITHOUT touching the
  /// previous manifest: a manifest must never name a cut that does not
  /// exist. Returns the published manifest — the MANIFEST wire verb
  /// renders this same value, so the wire view and the disk file cannot
  /// diverge. NotSupported unless durable with a data_dir, or in
  /// read-only mode.
  Result<storage::Manifest> CheckpointAll();

  /// Drops the resident engine for `name` so the next Acquire re-opens
  /// from disk — the follower's "new artifacts just landed" hook.
  /// Returns true if a resident engine was dropped. Refuses (false,
  /// with a warning) for a dirty NON-durable entry, whose unsaved
  /// appends exist in memory only.
  bool Invalidate(const std::string& name);

  bool read_only() const { return options_.read_only; }
  const std::string& data_dir() const { return options_.data_dir; }

  /// Registered names plus every `.onex` file in data_dir, sorted.
  std::vector<CatalogEntryInfo> List() const;

  CatalogStats stats() const;

  /// Aggregated storage counters across every RESIDENT durable entry:
  /// summed WAL bytes/records since checkpoint; checkpoint age is the
  /// minimum (most recent completion) and last duration the maximum
  /// across entries — the conservative figure for "how stale could a
  /// snapshot be" and "how long could a checkpoint stall queries".
  /// The METRICS verb's WAL/checkpoint gauges come from here.
  storage::StorageStats DurableStats() const;

 private:
  struct Entry {
    std::shared_ptr<Engine> engine;  ///< nullptr when evicted.
    /// Set in durable mode; shares a control block with `engine`.
    std::shared_ptr<storage::DurableEngine> durable;
    bool pinned = false;
    /// Appends not yet reflected in the on-disk snapshot. For durable
    /// entries the WAL still covers them (dirty only means "snapshot
    /// stale"); for non-durable entries dirty data exists in memory
    /// ONLY, and eviction must refuse.
    bool dirty = false;
    /// Bumped per Append; Flush clears dirty only if no append landed
    /// while its snapshot was being written.
    uint64_t mutations = 0;
    uint64_t last_used = 0;
  };

  /// Find-or-lazily-open. Caller holds mutex_. On success the entry is
  /// resident and its LRU stamp is fresh.
  Result<Entry*> ResolveLocked(const std::string& name) REQUIRES(mutex_);

  /// Evicts LRU non-pinned idle engines until the cap holds. Dirty
  /// victims are flushed first (durable: checkpoint; non-durable:
  /// refused with a warning — unsaved appends must never be silently
  /// discarded). Entries still referenced by sessions are skipped —
  /// their memory cannot be reclaimed anyway — as is `keep`, the entry
  /// being resolved right now (it is about to be handed to a session).
  /// Caller holds mutex_.
  void EnforceCapLocked(const Entry* keep) REQUIRES(mutex_);

  std::string PathFor(const std::string& name) const;

  CatalogOptions options_;
  mutable Mutex mutex_{LockRank::kCatalog, "catalog.mutex"};
  /// Registry rows, insert order. Guarded: every resolve, LRU stamp,
  /// dirty flip, and eviction happens under mutex_ (slow work —
  /// appends, snapshot writes — runs OUTSIDE it on shared_ptr copies).
  std::vector<std::pair<std::string, Entry>> entries_ GUARDED_BY(mutex_);
  uint64_t tick_ GUARDED_BY(mutex_) = 0;  ///< LRU clock, bumped per Acquire.
  CatalogStats stats_ GUARDED_BY(mutex_);
};

}  // namespace server
}  // namespace onex

#endif  // ONEX_SERVER_CATALOG_H_
