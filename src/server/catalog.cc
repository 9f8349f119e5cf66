#include "server/catalog.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <utility>

#include "storage/manifest.h"
#include "util/logging.h"

namespace onex {
namespace server {

namespace fs = std::filesystem;

namespace {

constexpr const char* kBaseExtension = ".onex";

/// An entry is idle when no session holds its engine. The catalog's own
/// references are `engine` plus, in durable mode, `durable` (they share
/// one control block), so "idle" is use_count == that baseline.
bool IsIdle(const std::shared_ptr<Engine>& engine, bool durable) {
  return engine.use_count() <= (durable ? 2 : 1);
}

}  // namespace

Catalog::Catalog(CatalogOptions options) : options_(std::move(options)) {
  if (options_.max_open_engines == 0) options_.max_open_engines = 1;
}

std::string Catalog::PathFor(const std::string& name) const {
  if (options_.data_dir.empty()) return "";
  return (fs::path(options_.data_dir) / (name + kBaseExtension)).string();
}

void Catalog::Register(const std::string& name, Engine engine) {
  Entry fresh;
  fresh.pinned = true;
  if (options_.durable && !options_.data_dir.empty()) {
    // Existing durable data wins over the offered engine: Create would
    // truncate the snapshot + WAL pair, silently destroying every
    // append acknowledged in earlier runs — the exact loss class this
    // subsystem exists to close.
    auto durable =
        fs::exists(PathFor(name))
            ? storage::DurableEngine::Open(options_.data_dir, name,
                                           options_.storage)
            : storage::DurableEngine::Create(options_.data_dir, name,
                                             std::move(engine),
                                             options_.storage);
    if (durable.ok()) {
      fresh.durable = std::move(durable).value();
      fresh.engine = fresh.durable->engine();
    } else {
      ONEX_LOG_WARN << "catalog: could not make '" << name
                    << "' durable: " << durable.status().ToString()
                    << " — dropping the registration (a durable catalog "
                       "must not serve datasets it cannot recover)";
      return;
    }
  } else {
    if (options_.durable) {
      ONEX_LOG_WARN << "catalog: durable mode without a data_dir; '"
                    << name << "' is memory-only";
    }
    fresh.engine = std::make_shared<Engine>(std::move(engine));
  }

  MutexLock lock(mutex_);
  fresh.last_used = ++tick_;
  for (auto& [entry_name, entry] : entries_) {
    if (entry_name == name) {
      entry = std::move(fresh);
      EnforceCapLocked(&entry);
      return;
    }
  }
  entries_.emplace_back(name, std::move(fresh));
  EnforceCapLocked(&entries_.back().second);
}

Result<Catalog::Entry*> Catalog::ResolveLocked(const std::string& name) {
  Entry* entry = nullptr;
  for (auto& [entry_name, e] : entries_) {
    if (entry_name == name) {
      entry = &e;
      break;
    }
  }
  if (entry != nullptr && entry->engine != nullptr) {
    entry->last_used = ++tick_;
    ++stats_.hits;
    return entry;
  }

  // Lazy (re)open from disk.
  const std::string path = PathFor(name);
  if (path.empty() || !fs::exists(path)) {
    // Names the dataset only: the reply goes to clients, and the path
    // would tell them the node's filesystem layout.
    return Status::NotFound("dataset '" + name + "' is not in the catalog");
  }
  std::shared_ptr<storage::DurableEngine> durable;
  std::shared_ptr<Engine> engine;
  if (options_.durable) {
    auto opened = storage::DurableEngine::Open(options_.data_dir, name,
                                               options_.storage);
    if (!opened.ok()) return opened.status();
    durable = std::move(opened).value();
    engine = durable->engine();
  } else {
    auto opened = Engine::Open(path);
    if (!opened.ok()) return opened.status();
    engine = std::make_shared<Engine>(std::move(opened).value());
  }
  ++stats_.lazy_opens;
  if (entry == nullptr) {
    entries_.emplace_back(name, Entry{});
    entry = &entries_.back().second;
  }
  entry->engine = std::move(engine);
  entry->durable = std::move(durable);
  entry->pinned = false;
  entry->dirty = false;
  entry->last_used = ++tick_;
  EnforceCapLocked(entry);
  return entry;
}

Result<std::shared_ptr<const Engine>> Catalog::Acquire(
    const std::string& name) {
  MutexLock lock(mutex_);
  auto resolved = ResolveLocked(name);
  if (!resolved.ok()) return resolved.status();
  return std::shared_ptr<const Engine>(resolved.value()->engine);
}

Result<AppendOutcome> Catalog::Append(const std::string& name,
                                      TimeSeries series) {
  if (options_.read_only) {
    return Status::NotSupported(
        "catalog is read-only (follower mode): appends go to the leader");
  }
  // Resolve under the lock, append outside it: maintenance (DTW against
  // every group) and the WAL fsync must not stall other sessions'
  // Acquires.
  std::shared_ptr<storage::DurableEngine> durable;
  std::shared_ptr<Engine> engine;
  {
    MutexLock lock(mutex_);
    auto resolved = ResolveLocked(name);
    if (!resolved.ok()) return resolved.status();
    durable = resolved.value()->durable;
    engine = resolved.value()->engine;
  }

  // The index is captured inside AppendSeries under the writer lock:
  // reading num_series() afterwards would race a concurrent append and
  // report someone else's index back to this client.
  size_t index = 0;
  const Status appended = engine->AppendSeries(std::move(series), &index);
  if (!appended.ok()) return appended;

  AppendOutcome outcome;
  outcome.series = index;
  outcome.total = index + 1;
  outcome.durable = durable != nullptr;
  {
    MutexLock lock(mutex_);
    ++stats_.appends;
    for (auto& [entry_name, entry] : entries_) {
      if (entry_name == name) {
        entry.dirty = true;
        ++entry.mutations;
        break;
      }
    }
  }
  return outcome;
}

Status Catalog::Flush(const std::string& name) {
  if (options_.read_only) {
    return Status::NotSupported(
        "catalog is read-only (follower mode): nothing local to flush");
  }
  std::shared_ptr<storage::DurableEngine> durable;
  std::shared_ptr<Engine> engine;
  uint64_t mutations_before = 0;
  {
    MutexLock lock(mutex_);
    auto resolved = ResolveLocked(name);
    if (!resolved.ok()) return resolved.status();
    durable = resolved.value()->durable;
    engine = resolved.value()->engine;
    mutations_before = resolved.value()->mutations;
  }

  Status flushed;
  if (durable != nullptr) {
    flushed = durable->Checkpoint();
  } else {
    const std::string path = PathFor(name);
    if (path.empty()) {
      return Status::NotSupported(
          "dataset '" + name +
          "' has no data directory to flush to (start the catalog with "
          "one, or durable mode)");
    }
    // Write-temp, fsync, rename — like the durable checkpoint: a crash
    // or ENOSPC mid-save must not destroy the only good on-disk copy,
    // and the OK must mean the bytes actually reached stable storage.
    const std::string tmp = path + ".tmp";
    flushed = engine->Save(tmp);
    if (flushed.ok()) flushed = storage::SyncFile(tmp);
    if (flushed.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
      flushed = Status::IOError("rename '" + tmp + "' -> '" + path +
                                "': " + std::strerror(errno));
    }
    // The rename's directory entry must be durable too, or a crash
    // could roll back to the pre-flush snapshot after we reported OK.
    if (flushed.ok()) flushed = storage::SyncDir(options_.data_dir);
  }
  if (!flushed.ok()) return flushed;
  {
    MutexLock lock(mutex_);
    ++stats_.flushes;
    for (auto& [entry_name, entry] : entries_) {
      if (entry_name == name) {
        // An append that landed while the snapshot was being written is
        // NOT in it — the entry must stay dirty or eviction would
        // silently discard that append.
        if (entry.mutations == mutations_before) entry.dirty = false;
        break;
      }
    }
    // A refused-dirty entry may have left the catalog over cap; now
    // that it is clean, the LRU can catch up.
    EnforceCapLocked(nullptr);
  }
  return Status::OK();
}

size_t Catalog::FlushAll() {
  if (options_.read_only) return 0;  // Nothing here is ever dirty.
  // Snapshot the dirty resident names under the lock, flush outside it
  // (Flush resolves again by name; an entry that went clean or away in
  // between is simply a cheap no-op flush).
  std::vector<std::string> dirty;
  {
    MutexLock lock(mutex_);
    for (const auto& [name, entry] : entries_) {
      if (entry.engine != nullptr && entry.dirty) dirty.push_back(name);
    }
  }
  size_t flushed = 0;
  for (const std::string& name : dirty) {
    const Status status = Flush(name);
    if (status.ok()) {
      ++flushed;
    } else {
      ONEX_LOG_WARN << "catalog: shutdown flush of '" << name
                    << "' failed: " << status.ToString();
    }
  }
  return flushed;
}

Result<storage::Manifest> Catalog::CheckpointAll() {
  if (options_.read_only) {
    return Status::NotSupported(
        "catalog is read-only (follower mode): cuts come from the leader");
  }
  if (!options_.durable || options_.data_dir.empty()) {
    return Status::NotSupported(
        "CheckpointAll requires durable mode with a data directory");
  }

  // Every durable dataset, registered or merely on disk. List() snapshots
  // both; new datasets registered after this point miss THIS manifest and
  // catch the next — the cut is over a name set, not a frozen world.
  std::vector<std::string> names;
  for (const CatalogEntryInfo& row : List()) names.push_back(row.name);

  storage::Manifest manifest;
  manifest.created_unix_s = static_cast<uint64_t>(std::time(nullptr));
  for (const std::string& name : names) {
    std::shared_ptr<storage::DurableEngine> durable;
    std::shared_ptr<Engine> engine;
    uint64_t mutations_before = 0;
    {
      MutexLock lock(mutex_);
      auto resolved = ResolveLocked(name);
      if (!resolved.ok()) return resolved.status();
      durable = resolved.value()->durable;
      engine = resolved.value()->engine;
      mutations_before = resolved.value()->mutations;
    }
    if (durable == nullptr) {
      // Only reachable for a pinned memory-only engine in a catalog that
      // lost its data_dir — it has no on-disk artifacts to name.
      ONEX_LOG_WARN << "catalog: '" << name
                    << "' is not durable; leaving it out of the manifest";
      continue;
    }
    // Abort on failure: a manifest naming a cut that was never taken
    // would send followers chasing artifacts that do not exist. The
    // previously published manifest stays valid.
    const Status cut = durable->Checkpoint();
    if (!cut.ok()) return cut;
    {
      MutexLock lock(mutex_);
      ++stats_.flushes;
      for (auto& [entry_name, entry] : entries_) {
        if (entry_name == name) {
          if (entry.mutations == mutations_before) entry.dirty = false;
          break;
        }
      }
    }

    const storage::ChainStatus chain = durable->chain_status();
    storage::ManifestEntry entry;
    entry.name = name;
    entry.series = chain.wal_sequence_base;
    entry.live_series = engine->num_series();
    entry.base_file = fs::path(chain.base_path).filename().string();
    entry.base_bytes = chain.base_bytes;
    entry.base_crc = chain.base_crc;
    for (const storage::ChainLink& link : chain.deltas) {
      entry.deltas.push_back({fs::path(link.path).filename().string(),
                              link.bytes, link.new_crc});
    }
    const std::string wal_path =
        storage::WalPathFor(options_.data_dir, name);
    entry.wal_file = fs::path(wal_path).filename().string();
    std::error_code ec;
    const auto wal_size = fs::file_size(wal_path, ec);
    entry.wal_bytes = ec ? 0 : static_cast<uint64_t>(wal_size);
    manifest.entries.push_back(std::move(entry));
  }

  const Status written =
      storage::WriteManifest(manifest, options_.data_dir);
  if (!written.ok()) return written;
  return manifest;
}

bool Catalog::Invalidate(const std::string& name) {
  MutexLock lock(mutex_);
  for (auto& [entry_name, entry] : entries_) {
    if (entry_name != name) continue;
    if (entry.engine == nullptr) return false;
    if (entry.dirty && entry.durable == nullptr) {
      ONEX_LOG_WARN << "catalog: refusing to invalidate '" << name
                    << "': unsaved appends exist in memory only";
      return false;
    }
    // Sessions holding the old engine keep serving its state; the next
    // Acquire re-opens whatever is on disk now.
    entry.engine.reset();
    entry.durable.reset();
    entry.dirty = false;
    entry.pinned = false;
    ++stats_.evictions;
    return true;
  }
  return false;
}

void Catalog::EnforceCapLocked(const Entry* keep) {
  size_t open = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.engine != nullptr) ++open;
  }
  if (open <= options_.max_open_engines) return;

  // Evictable: resident, reopenable, and idle (the catalog holds the
  // only references — dropping a shared engine frees no memory).
  // LRU order, oldest first.
  std::vector<std::pair<std::string, Entry>*> candidates;
  for (auto& named : entries_) {
    const Entry& entry = named.second;
    if (&entry == keep) continue;
    if (entry.engine == nullptr || entry.pinned) continue;
    if (!IsIdle(entry.engine, entry.durable != nullptr)) continue;
    candidates.push_back(&named);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto* a, const auto* b) {
              return a->second.last_used < b->second.last_used;
            });

  for (auto* named : candidates) {
    if (open <= options_.max_open_engines) break;
    Entry& victim = named->second;
    if (victim.dirty) {
      if (victim.durable != nullptr) {
        // Unsaved appends are WAL-protected, but checkpointing first
        // makes the next open replay-free and bounds WAL growth.
        const Status checkpointed = victim.durable->Checkpoint();
        if (!checkpointed.ok()) {
          ONEX_LOG_WARN << "catalog: dirty engine '" << named->first
                        << "' failed its pre-eviction checkpoint ("
                        << checkpointed.ToString()
                        << "); refusing to evict";
          ++stats_.refused_evictions;
          continue;
        }
        ++stats_.flush_evictions;
      } else {
        // Non-durable dirty data exists in memory ONLY. Eviction would
        // silently discard acknowledged appends — refuse, loudly.
        ONEX_LOG_WARN << "catalog: engine '" << named->first
                      << "' has unsaved appends and no WAL; refusing to "
                         "evict (send FLUSH or enable durable mode)";
        ++stats_.refused_evictions;
        continue;
      }
      victim.dirty = false;
    }
    victim.engine.reset();
    victim.durable.reset();
    ++stats_.evictions;
    --open;
  }
}

std::vector<CatalogEntryInfo> Catalog::List() const {
  // Snapshot the registry under the lock, then do the directory scan
  // (potentially slow I/O) outside it so LIST never stalls Acquire.
  std::vector<CatalogEntryInfo> rows;
  {
    MutexLock lock(mutex_);
    for (const auto& [name, entry] : entries_) {
      rows.push_back({name, entry.engine != nullptr, entry.pinned,
                      entry.durable != nullptr, entry.dirty});
    }
  }
  if (!options_.data_dir.empty()) {
    std::error_code ec;
    for (const auto& file :
         fs::directory_iterator(options_.data_dir, ec)) {
      if (!file.is_regular_file(ec)) continue;
      const fs::path& p = file.path();
      if (p.extension() != kBaseExtension) continue;
      const std::string name = p.stem().string();
      const bool known =
          std::any_of(rows.begin(), rows.end(),
                      [&](const CatalogEntryInfo& r) { return r.name == name; });
      if (!known) rows.push_back({name, false, false, false, false});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const CatalogEntryInfo& a, const CatalogEntryInfo& b) {
              return a.name < b.name;
            });
  return rows;
}

CatalogStats Catalog::stats() const {
  MutexLock lock(mutex_);
  CatalogStats out = stats_;
  out.resident = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.engine != nullptr) ++out.resident;
  }
  return out;
}

storage::StorageStats Catalog::DurableStats() const {
  // Snapshot the durable handles under the mutex, read their (atomic)
  // counters outside it — per-entry stats() never takes a lock, but
  // keeping the registry section minimal is free here.
  std::vector<std::shared_ptr<storage::DurableEngine>> durables;
  {
    MutexLock lock(mutex_);
    for (const auto& [name, entry] : entries_) {
      if (entry.durable != nullptr) durables.push_back(entry.durable);
    }
  }
  storage::StorageStats out;
  for (const auto& durable : durables) {
    const storage::StorageStats one = durable->stats();
    out.appends += one.appends;
    out.wal_records += one.wal_records;
    out.wal_bytes += one.wal_bytes;
    out.checkpoints += one.checkpoints;
    // Most recent completion across entries (smallest age) and the
    // worst-case stall (largest duration).
    if (one.checkpoint_age_seconds >= 0.0 &&
        (out.checkpoint_age_seconds < 0.0 ||
         one.checkpoint_age_seconds < out.checkpoint_age_seconds)) {
      out.checkpoint_age_seconds = one.checkpoint_age_seconds;
    }
    out.checkpoint_last_duration_seconds =
        std::max(out.checkpoint_last_duration_seconds,
                 one.checkpoint_last_duration_seconds);
    // One unwritable WAL anywhere makes the node unready.
    out.wal_write_failed = out.wal_write_failed || one.wal_write_failed;
    // Incremental-checkpoint roll-up: totals sum; chain length and the
    // newest delta's size take the max (the worst case is what a
    // dashboard alert keys on); degraded recovery is sticky anywhere.
    out.delta_checkpoints += one.delta_checkpoints;
    out.chain_compactions += one.chain_compactions;
    out.delta_chain_bytes += one.delta_chain_bytes;
    out.delta_chain_length =
        std::max(out.delta_chain_length, one.delta_chain_length);
    out.last_delta_bytes =
        std::max(out.last_delta_bytes, one.last_delta_bytes);
    out.checkpoint_lock_hold_seconds =
        std::max(out.checkpoint_lock_hold_seconds,
                 one.checkpoint_lock_hold_seconds);
    out.degraded_recovery = out.degraded_recovery || one.degraded_recovery;
    out.gc_reclaimed_bytes += one.gc_reclaimed_bytes;
    out.gc_pending_artifacts += one.gc_pending_artifacts;
  }
  return out;
}

}  // namespace server
}  // namespace onex
