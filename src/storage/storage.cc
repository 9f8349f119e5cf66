#include "storage/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "core/serialization.h"
#include "storage/delta.h"
#include "util/crc32.h"
#include "util/file_bytes.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace onex {
namespace storage {
namespace {

namespace fs = std::filesystem;

/// Compaction threshold on the chain's summed delta bytes (alongside
/// StorageOptions::max_delta_chain_length).
constexpr uint64_t kMaxDeltaChainBytes = 64ull << 20;

Status RenameFile(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename '" + from + "' -> '" + to + "': " +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// Publishes `bytes` at `path` crash-durably: temp, fsync, rename,
/// directory fsync — the same dance every snapshot artifact uses.
Status WriteFileDurable(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot create '" + tmp + "'");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) return Status::IOError("write failed for '" + tmp + "'");
  }
  Status synced = SyncFile(tmp);
  if (!synced.ok()) return synced;
  Status renamed = RenameFile(tmp, path);
  if (!renamed.ok()) return renamed;
  return SyncDir(DirOf(path));
}

/// The on-disk snapshot state reconstructed at recovery: base file +
/// as much of the delta chain as validates.
struct RecoveredChain {
  std::string bytes;  ///< Serialized snapshot after applying the chain.
  std::vector<ChainLink> chain;
  uint64_t base_bytes = 0;
  uint32_t base_crc = 0;
  /// A delta artifact was corrupt/torn and the chain was cut there —
  /// the state is the last VALID checkpoint, not the newest one.
  bool degraded = false;
};

/// Reads `<name>.onex` and applies `<name>.onex.delta.1..k` in place.
/// A corrupt or torn delta cuts the chain at the last valid state
/// (degraded = true) instead of failing recovery; an INTACT delta.1
/// whose base does not match the current base file is the
/// crash-between-compaction-and-cleanup signature and ends the chain
/// cleanly (the base is newer than the stale deltas). `max_deltas`
/// exists for the self-restart on a reconstruction-CRC failure, which
/// leaves the buffer unspecified.
Result<RecoveredChain> LoadSnapshotChain(const std::string& dir,
                                         const std::string& name,
                                         uint64_t max_deltas = ~0ULL) {
  RecoveredChain out;
  auto base = ReadFileBytes(BasePathFor(dir, name));
  if (!base.ok()) return base.status();
  out.bytes = std::move(base).value();
  out.base_bytes = out.bytes.size();
  out.base_crc = Crc32(out.bytes.data(), out.bytes.size());
  for (uint64_t k = 1; k <= max_deltas; ++k) {
    const std::string path = DeltaPathFor(dir, name, k);
    auto delta = ReadFileBytes(path);
    if (!delta.ok()) {
      if (delta.status().code() == Status::Code::kNotFound) break;
      ONEX_LOG_WARN << "delta chain cut at '" << path
                    << "': " << delta.status().ToString()
                    << " — recovering the last valid checkpoint";
      out.degraded = true;
      break;
    }
    auto info = InspectDelta(delta.value());
    if (!info.ok()) {
      ONEX_LOG_WARN << "delta chain cut at corrupt '" << path
                    << "': " << info.status().ToString()
                    << " — recovering the last valid checkpoint";
      out.degraded = true;
      break;
    }
    if (k == 1 && (info.value().old_size != out.bytes.size() ||
                   info.value().old_crc != out.base_crc)) {
      // Intact delta against an OLDER base: a compaction published the
      // new base but crashed before removing the stale chain. The base
      // already holds everything the deltas did — not a degradation.
      ONEX_LOG_INFO << "ignoring stale delta chain at '" << path
                    << "' (base snapshot is newer — compaction crash)";
      break;
    }
    const Status applied = ApplyDeltaInPlace(&out.bytes, delta.value());
    if (!applied.ok()) {
      ONEX_LOG_WARN << "delta chain cut at '" << path
                    << "': " << applied.ToString()
                    << " — recovering the last valid checkpoint";
      // A failed apply leaves the buffer unspecified; rebuild the
      // valid prefix from disk (strictly shorter — terminates).
      auto retry = LoadSnapshotChain(dir, name, k - 1);
      if (retry.ok()) retry.value().degraded = true;
      return retry;
    }
    out.chain.push_back(
        {path, delta.value().size(), info.value().new_crc});
  }
  return out;
}

}  // namespace

Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open for fsync '" + path + "': " +
                           std::strerror(errno));
  }
  const bool ok = ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  if (!ok) {
    return Status::IOError("fsync '" + path + "': " + std::strerror(err));
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir for fsync '" + dir + "': " +
                           std::strerror(errno));
  }
  const bool ok = ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  if (!ok) {
    return Status::IOError("fsync dir '" + dir + "': " + std::strerror(err));
  }
  return Status::OK();
}

std::string DirOf(const std::string& path) {
  const std::string dir = fs::path(path).parent_path().string();
  return dir.empty() ? "." : dir;
}

std::string BasePathFor(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / (name + ".onex")).string();
}

std::string WalPathFor(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / (name + ".wal")).string();
}

std::string DeltaPathFor(const std::string& dir, const std::string& name,
                         uint64_t k) {
  return BasePathFor(dir, name) + ".delta." + std::to_string(k);
}

DurableEngine::DurableEngine(Private, Engine engine, WalWriter wal,
                             StorageOptions options, std::string base_path,
                             std::string wal_path)
    : engine_(std::move(engine)),
      wal_(std::move(wal)),
      options_(options),
      base_path_(std::move(base_path)),
      wal_path_(std::move(wal_path)) {}

void DurableEngine::Start() {
  {
    MutexLock lock(wal_mutex_);
    wal_records_.store(wal_.records());
    wal_bytes_.store(wal_.bytes());
  }
  engine_.AttachAppendSink(this);
  if (options_.background_checkpointer) {
    checkpointer_ = std::thread([this] { CheckpointerLoop(); });
  }
}

Result<std::shared_ptr<DurableEngine>> DurableEngine::Create(
    const std::string& dir, const std::string& name, Engine engine,
    const StorageOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // Best effort; open errors surface below.
  const std::string base_path = BasePathFor(dir, name);
  const std::string wal_path = WalPathFor(dir, name);

  // Serialize once to memory (the initial prev-snapshot shadow), then
  // publish temp-then-rename like every snapshot: if this Create is
  // re-persisting a name that already has durable data on disk, a save
  // failing partway must not have destroyed the previous good pair.
  auto bytes = SaveBaseToString(engine.base());
  if (!bytes.ok()) return bytes.status();
  Status saved = WriteFileDurable(base_path, bytes.value());
  if (!saved.ok()) return saved;

  auto wal = WalWriter::Create(wal_path, engine.num_series());
  if (!wal.ok()) return wal.status();
  // Make the fresh WAL's directory entry itself crash-durable; without
  // this, a crash in the wrong instant could present the OLD directory
  // state at recovery.
  const Status dir_synced = SyncDir(dir);
  if (!dir_synced.ok()) return dir_synced;

  // A re-persist over previous durable data orphans any delta chain
  // the old incarnation had published; it must not shadow this base.
  const uint64_t num_series = engine.num_series();
  auto durable = std::make_shared<DurableEngine>(
      Private{}, std::move(engine), std::move(wal).value(), options,
      base_path, wal_path);
  durable->RemoveDeltaFiles(1);
  {
    MutexLock lock(durable->checkpoint_mutex_);
    durable->base_bytes_ = bytes.value().size();
    durable->base_crc_ = Crc32(bytes.value().data(), bytes.value().size());
    durable->prev_snapshot_ = std::move(bytes).value();
  }
  durable->snapshot_series_.store(num_series);
  durable->Start();
  return durable;
}

Result<std::shared_ptr<DurableEngine>> DurableEngine::Open(
    const std::string& dir, const std::string& name,
    const StorageOptions& options) {
  const std::string base_path = BasePathFor(dir, name);
  const std::string wal_path = WalPathFor(dir, name);

  // Reconstruct the snapshot state: base file + delta chain, applied
  // in place. A corrupt chain degrades to the last valid checkpoint.
  auto recovered = LoadSnapshotChain(dir, name);
  if (!recovered.ok()) return recovered.status();
  RecoveredChain rc = std::move(recovered).value();
  auto parsed = LoadBaseFromBuffer(rc.bytes);
  if (!parsed.ok()) return parsed.status();
  // The WAL tail is applied to this base before the engine wraps it, so
  // replay pays no version copy.
  OnexBase base = std::move(parsed).value();
  const uint64_t chain_series = base.dataset().size();

  uint64_t replayed = 0;
  uint64_t skipped = 0;
  bool torn = false;
  bool wal_beyond_state = false;
  WalWriter wal;

  auto contents = ReadWal(wal_path);
  if (contents.ok() && contents.value().snapshot_series > chain_series) {
    if (!rc.degraded) {
      return Status::Corruption(
          "WAL '" + wal_path + "' expects a snapshot with " +
          std::to_string(contents.value().snapshot_series) +
          " series but '" + base_path + "' has " +
          std::to_string(chain_series) +
          " — snapshot and log do not belong together");
    }
    // Degraded recovery: the log belongs to a checkpoint the corrupt
    // chain no longer reaches. Its records cannot be applied (their
    // sequence range starts past the recovered state); rotate it away
    // LOUDLY — this is the one path that gives up acknowledged data,
    // and it only exists because the alternative is not starting.
    ONEX_LOG_WARN << "degraded recovery of '" << base_path
                  << "': WAL sequence base "
                  << contents.value().snapshot_series
                  << " is past the last valid checkpoint ("
                  << chain_series
                  << " series) — dropping the unreachable log tail";
    wal_beyond_state = true;
  }
  if (contents.ok() && !wal_beyond_state) {
    WalContents& log = contents.value();
    torn = log.tail_torn;
    // Batch the replay: collect every record the snapshot doesn't
    // already cover, then apply them through ONE AppendBatch — one
    // derived-state rebuild per length instead of one per record, so
    // recovery cost approaches a single maintenance pass
    // (perfbench's reopen_s and catchup_s track it).
    std::vector<TimeSeries> to_replay;
    to_replay.reserve(log.records.size());
    for (size_t i = 0; i < log.records.size(); ++i) {
      // Record i creates series index snapshot_series_at_log_start + i;
      // skip what a newer snapshot (crash mid-checkpoint) already has.
      if (log.snapshot_series + i < chain_series) {
        ++skipped;
        continue;
      }
      to_replay.push_back(std::move(log.records[i]));
    }
    replayed = to_replay.size();
    if (!to_replay.empty()) {
      const Status applied = base.AppendBatch(std::move(to_replay));
      if (!applied.ok()) {
        return Status::Corruption("WAL replay failed after " +
                                  std::to_string(skipped) +
                                  " skipped records: " + applied.ToString());
      }
    }
    // Continue the log only when its records line up exactly with the
    // recovered state: header_base + records == series. A stale log
    // whose valid records stop SHORT of what a newer snapshot holds
    // (crash after the snapshot rename with an unsynced torn tail)
    // must be rotated — appending to it would give new records
    // sequence numbers the snapshot already covers, and the next
    // recovery would silently skip acknowledged appends. Lining up is
    // only violated with replayed == 0 (the snapshot covers every
    // valid record), so rotation never discards WAL-only data.
    if (log.valid_bytes > 0 &&
        log.snapshot_series + log.records.size() == base.dataset().size()) {
      auto writer = WalWriter::OpenForAppend(wal_path, log.valid_bytes,
                                             log.records.size());
      if (!writer.ok()) return writer.status();
      wal = std::move(writer).value();
    } else {
      auto writer = WalWriter::Create(wal_path, base.dataset().size());
      if (!writer.ok()) return writer.status();
      wal = std::move(writer).value();
    }
  } else if (wal_beyond_state ||
             contents.status().code() == Status::Code::kNotFound) {
    auto writer = WalWriter::Create(wal_path, base.dataset().size());
    if (!writer.ok()) return writer.status();
    wal = std::move(writer).value();
  } else {
    return contents.status();
  }

  if (torn) {
    ONEX_LOG_WARN << "WAL '" << wal_path
                  << "' had a torn tail; recovered the valid prefix ("
                  << (replayed + skipped) << " records)";
  }

  // Any WAL created/rotated above added a directory entry recovery
  // depends on; make it durable before acknowledging the open.
  const Status dir_synced = SyncDir(dir);
  if (!dir_synced.ok()) return dir_synced;

  auto durable = std::make_shared<DurableEngine>(
      Private{}, Engine::FromBase(std::move(base)), std::move(wal), options,
      base_path, wal_path);
  durable->replayed_records_ = replayed;
  durable->skipped_records_ = skipped;
  durable->recovered_torn_tail_ = torn;
  durable->degraded_recovery_ = rc.degraded;
  durable->snapshot_series_.store(chain_series);
  durable->chain_length_.store(rc.chain.size());
  uint64_t chain_bytes = 0;
  for (const ChainLink& link : rc.chain) chain_bytes += link.bytes;
  durable->chain_bytes_.store(chain_bytes);
  {
    MutexLock lock(durable->checkpoint_mutex_);
    durable->base_bytes_ = rc.base_bytes;
    durable->base_crc_ = rc.base_crc;
    durable->chain_ = std::move(rc.chain);
    // The reconstructed chain state IS the encoder's previous
    // snapshot: the next incremental checkpoint deltas against it
    // without touching disk.
    durable->prev_snapshot_ = std::move(rc.bytes);
  }
  durable->Start();
  return durable;
}

DurableEngine::~DurableEngine() {
  {
    MutexLock lock(cp_mutex_);
    stop_ = true;
  }
  cp_cv_.NotifyAll();
  if (checkpointer_.joinable()) checkpointer_.join();
  // No checkpoint on shutdown — recovery must not depend on a clean
  // exit (that is the whole point). A final best-effort sync covers
  // appends acknowledged with sync_appends off.
  engine_.AttachAppendSink(nullptr);
  MutexLock lock(wal_mutex_);
  if (wal_.bytes() > 0) wal_.Sync();
}

std::shared_ptr<Engine> DurableEngine::engine() {
  return std::shared_ptr<Engine>(shared_from_this(), &engine_);
}

std::shared_ptr<const Engine> DurableEngine::const_engine() {
  return std::shared_ptr<const Engine>(shared_from_this(), &engine_);
}

Status DurableEngine::Append(TimeSeries series) {
  return engine_.AppendSeries(std::move(series));
}

// ---- AppendSink (appends arrive serialized by the engine).

Status DurableEngine::LogAppend(std::span<const TimeSeries> batch) {
  ONEX_TRACE_SPAN("wal.append");
  MutexLock lock(wal_mutex_);
  if (options_.wal_fault_injection) {
    const Status injected = options_.wal_fault_injection();
    if (!injected.ok()) {
      wal_write_failed_.store(true, std::memory_order_relaxed);
      return injected;
    }
  }
  const uint64_t rollback_to = wal_.bytes();
  uint64_t written = 0;
  Status failed = Status::OK();
  for (const TimeSeries& series : batch) {
    failed = wal_.Append(series);
    if (!failed.ok()) break;
    ++written;
  }
  // Group commit: one fsync covers the whole batch.
  if (failed.ok() && options_.sync_appends) failed = wal_.Sync();
  if (!failed.ok()) {
    // All-or-nothing: the caller applies none of the batch in memory,
    // so none of its records may survive in the log — a partial record
    // included (the fd offset advanced even though bytes_ did not), or
    // it would shadow every later acknowledged append at replay.
    wal_.Rollback(rollback_to, written);
    wal_write_failed_.store(true, std::memory_order_relaxed);
    return failed;
  }
  wal_write_failed_.store(false, std::memory_order_relaxed);
  appends_.fetch_add(batch.size());
  wal_records_.fetch_add(batch.size());
  wal_bytes_.store(wal_.bytes());
  {
    MutexLock lock(cp_mutex_);
  }
  cp_cv_.NotifyOne();
  return Status::OK();
}

// ---- checkpointing.

bool DurableEngine::OverThreshold() const {
  const StorageOptions& o = options_;
  return (o.checkpoint_wal_records > 0 &&
          wal_records_.load() >= o.checkpoint_wal_records) ||
         (o.checkpoint_wal_bytes > 0 &&
          wal_bytes_.load() >= o.checkpoint_wal_bytes);
}

void DurableEngine::CheckpointerLoop() {
  while (true) {
    {
      MutexLock lock(cp_mutex_);
      while (!stop_ && !OverThreshold()) cp_cv_.Wait(cp_mutex_);
      if (stop_) return;
    }
    const Status checkpointed = Checkpoint();
    if (!checkpointed.ok()) {
      ONEX_LOG_WARN << "background checkpoint of '" << base_path_
                    << "' failed: " << checkpointed.ToString();
      // Retry with a fixed backoff (threshold permitting) instead of
      // spinning: a transient error (disk briefly full) must not leave
      // the WAL growing unchecked for the rest of the process.
      MutexLock lock(cp_mutex_);
      const auto retry_at =
          std::chrono::steady_clock::now() + std::chrono::seconds(1);
      while (!stop_ &&
             cp_cv_.WaitUntil(cp_mutex_, retry_at) != std::cv_status::timeout) {
      }
      if (stop_) return;
    }
  }
}

Status DurableEngine::Checkpoint() {
  MutexLock serialize(checkpoint_mutex_);
  const Status result = CheckpointIncremental();
  // Every publish is a fresh manifest that names no retired artifact —
  // sweep whatever has aged out of the grace window.
  SweepRetiredLocked();
  return result;
}

size_t DurableEngine::CollectGarbage() {
  MutexLock lock(checkpoint_mutex_);
  return SweepRetiredLocked();
}

Status DurableEngine::CheckpointIncremental() {
  ONEX_TRACE_SPAN("storage.checkpoint_incremental");
  Timer duration;

  // Serialize a version holding every append logged so far to a memory
  // shadow. No lock is held: queries and appends go on while it
  // encodes.
  std::string shadow;
  uint64_t series = 0;
  {
    const std::shared_ptr<const OnexBase> pinned = engine_.PinSettled();
    auto bytes = SaveBaseToString(*pinned);
    if (!bytes.ok()) return bytes.status();
    shadow = std::move(bytes).value();
    series = pinned->dataset().size();
  }

  // Nothing changed since the last checkpoint (disk already covers
  // every series and the WAL is empty): don't grow the chain with
  // empty deltas — CheckpointAll sweeps clean engines too.
  if (series == snapshot_series_.load() && wal_records_.load() == 0) {
    return Status::OK();
  }

  // Delta against the previous snapshot shadow.
  const std::string delta = EncodeDelta(prev_snapshot_, shadow);

  const bool over_length =
      options_.max_delta_chain_length > 0 &&
      chain_.size() + 1 > options_.max_delta_chain_length;
  const bool over_bytes =
      chain_bytes_.load() + delta.size() > kMaxDeltaChainBytes;
  // A delta as large as the snapshot itself isn't paying for its link
  // in the recovery chain; fold immediately.
  const bool not_paying = delta.size() >= shadow.size();

  if (over_length || over_bytes || not_paying) {
    // Compaction: publish the shadow as a fresh full base, then drop
    // the folded chain.
    const Status published = WriteFileDurable(base_path_, shadow);
    if (!published.ok()) return published;
    RetireChainLocked();
    chain_.clear();
    base_bytes_ = shadow.size();
    base_crc_ = Crc32(shadow.data(), shadow.size());
    chain_compactions_.fetch_add(1);
    chain_length_.store(0);
    chain_bytes_.store(0);
    last_delta_bytes_.store(0);
  } else {
    const std::string path =
        base_path_ + ".delta." + std::to_string(chain_.size() + 1);
    const Status published = WriteFileDurable(path, delta);
    if (!published.ok()) return published;
    // The publish may have re-taken a retired name (compaction resets
    // the numbering to 1): those bytes are live again, not reclaimable.
    retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                  [&](const RetiredArtifact& r) {
                                    return r.path == path;
                                  }),
                   retired_.end());
    gc_pending_artifacts_.store(retired_.size());
    chain_.push_back(
        {path, delta.size(), Crc32(shadow.data(), shadow.size())});
    delta_checkpoints_.fetch_add(1);
    chain_length_.store(chain_.size());
    chain_bytes_.fetch_add(delta.size());
    last_delta_bytes_.store(delta.size());
  }
  prev_snapshot_ = std::move(shadow);
  snapshot_series_.store(series);

  // Rotate the WAL to sequence base `series`, re-logging appends that
  // landed after the pin. Appends are held off for this step only. A
  // crash between the publish above and this rotation leaves the old
  // log, whose sequence base is below the new chain's, and Open skips
  // the already-covered prefix.
  {
    MutexLock lock(wal_mutex_);
    Timer hold;
    const Status rotated = RotateWalLocked(series);
    last_lock_hold_ns_.store(hold.ElapsedNanos());
    if (!rotated.ok()) return rotated;
  }

  checkpoints_.fetch_add(1);
  last_checkpoint_duration_ns_.store(duration.ElapsedNanos());
  last_checkpoint_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return Status::OK();
}

Status DurableEngine::RotateWalLocked(uint64_t series) {
  // The live log holds every acknowledged append, including one that is
  // logged but not yet published as a version, so the records to carry
  // over come from it rather than from any base. Only the writer's
  // first records() count: bytes past them belong to an append that
  // failed and was never acknowledged.
  auto live = ReadWal(wal_path_);
  if (!live.ok()) return live.status();
  const WalContents& log = live.value();
  if (log.records.size() < wal_.records() || log.snapshot_series > series) {
    return Status::Corruption(
        "WAL '" + wal_path_ + "' reads " +
        std::to_string(log.records.size()) + " records from sequence " +
        std::to_string(log.snapshot_series) + ", the writer logged " +
        std::to_string(wal_.records()) + " and the checkpoint covers " +
        std::to_string(series) + " series");
  }
  const std::string wal_tmp = wal_path_ + ".tmp";
  auto fresh = WalWriter::Create(wal_tmp, series);
  if (!fresh.ok()) return fresh.status();
  WalWriter writer = std::move(fresh).value();
  // Re-log every record the chain doesn't cover — one group-commit
  // fsync for all of them.
  uint64_t relogged = 0;
  for (size_t i = series - log.snapshot_series; i < wal_.records(); ++i) {
    const Status appended = writer.Append(log.records[i]);
    if (!appended.ok()) return appended;
    ++relogged;
  }
  const Status synced = writer.Sync();
  if (!synced.ok()) return synced;
  const Status renamed = RenameFile(wal_tmp, wal_path_);
  if (!renamed.ok()) return renamed;
  wal_ = std::move(writer);  // Old descriptor closes here.
  const Status dir_synced = SyncDir(DirOf(wal_path_));
  if (!dir_synced.ok()) return dir_synced;
  wal_records_.store(relogged);
  wal_bytes_.store(wal_.bytes());
  return Status::OK();
}

void DurableEngine::RemoveDeltaFiles(uint64_t from) const {
  for (uint64_t k = from;; ++k) {
    const std::string path = base_path_ + ".delta." + std::to_string(k);
    std::error_code ec;
    if (!fs::remove(path, ec)) break;  // First absent index ends the run.
  }
}

void DurableEngine::RetireChainLocked() {
  if (options_.delta_gc_grace_s <= 0.0) {
    RemoveDeltaFiles(1);
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  for (const ChainLink& link : chain_) {
    retired_.push_back({link.path, link.bytes, now});
  }
  gc_pending_artifacts_.store(retired_.size());
}

size_t DurableEngine::SweepRetiredLocked() {
  if (retired_.empty()) return 0;
  const auto grace = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.delta_gc_grace_s));
  const auto cutoff = std::chrono::steady_clock::now() - grace;
  size_t unlinked = 0;
  auto keep = retired_.begin();
  for (auto it = retired_.begin(); it != retired_.end(); ++it) {
    if (it->retired_at <= cutoff) {
      std::error_code ec;
      fs::remove(it->path, ec);
      gc_reclaimed_bytes_.fetch_add(it->bytes);
      ++unlinked;
    } else {
      if (keep != it) *keep = std::move(*it);  // Self-move guts the path.
      ++keep;
    }
  }
  retired_.erase(keep, retired_.end());
  gc_pending_artifacts_.store(retired_.size());
  return unlinked;
}

ChainStatus DurableEngine::chain_status() const {
  MutexLock lock(checkpoint_mutex_);
  ChainStatus status;
  status.base_path = base_path_;
  status.base_bytes = base_bytes_;
  status.base_crc = base_crc_;
  status.deltas = chain_;
  status.wal_sequence_base = snapshot_series_.load();
  return status;
}

StorageStats DurableEngine::stats() const {
  StorageStats stats;
  stats.appends = appends_.load();
  stats.wal_records = wal_records_.load();
  stats.wal_bytes = wal_bytes_.load();
  stats.checkpoints = checkpoints_.load();
  stats.replayed_records = replayed_records_;
  stats.skipped_records = skipped_records_;
  stats.recovered_torn_tail = recovered_torn_tail_;
  stats.wal_write_failed = wal_write_failed_.load(std::memory_order_relaxed);
  stats.delta_checkpoints = delta_checkpoints_.load();
  stats.chain_compactions = chain_compactions_.load();
  stats.delta_chain_length = chain_length_.load();
  stats.delta_chain_bytes = chain_bytes_.load();
  stats.last_delta_bytes = last_delta_bytes_.load();
  stats.snapshot_series = snapshot_series_.load();
  stats.checkpoint_lock_hold_seconds =
      static_cast<double>(last_lock_hold_ns_.load()) * 1e-9;
  stats.degraded_recovery = degraded_recovery_;
  stats.gc_reclaimed_bytes = gc_reclaimed_bytes_.load();
  stats.gc_pending_artifacts = gc_pending_artifacts_.load();
  const int64_t last_ns = last_checkpoint_ns_.load();
  if (last_ns != 0) {
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    stats.checkpoint_age_seconds =
        static_cast<double>(now_ns - last_ns) * 1e-9;
    stats.checkpoint_last_duration_seconds =
        static_cast<double>(last_checkpoint_duration_ns_.load()) * 1e-9;
  }
  return stats;
}

}  // namespace storage
}  // namespace onex
