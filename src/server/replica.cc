#include "server/replica.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "storage/storage.h"
#include "util/crc32.h"
#include "util/file_bytes.h"
#include "util/logging.h"

namespace onex {
namespace server {

namespace {

namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when the local copy of `file` already holds exactly the bytes
/// the manifest names (size + whole-file CRC). Used at bootstrap so a
/// restarted follower never re-downloads an unchanged base.
bool LocalFileMatches(const std::string& path, uint64_t bytes,
                      uint32_t crc, bool check_crc) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size != bytes) return false;
  if (!check_crc) return true;
  auto data = ReadFileBytes(path);
  return data.ok() && data.value().size() == bytes &&
         Crc32(data.value().data(), data.value().size()) == crc;
}

bool SameDeltas(const std::vector<storage::ManifestEntry::DeltaRef>& a,
                const std::vector<storage::ManifestEntry::DeltaRef>& b,
                size_t prefix) {
  if (a.size() < prefix || b.size() < prefix) return false;
  for (size_t i = 0; i < prefix; ++i) {
    if (a[i].file != b[i].file || a[i].bytes != b[i].bytes ||
        a[i].crc != b[i].crc) {
      return false;
    }
  }
  return true;
}

bool SameEntry(const storage::ManifestEntry& a,
               const storage::ManifestEntry& b) {
  return a.series == b.series && a.live_series == b.live_series &&
         a.base_file == b.base_file && a.base_bytes == b.base_bytes &&
         a.base_crc == b.base_crc && a.wal_bytes == b.wal_bytes &&
         a.deltas.size() == b.deltas.size() &&
         SameDeltas(a.deltas, b.deltas, a.deltas.size());
}

}  // namespace

ReplicaSyncer::ReplicaSyncer(ReplicaOptions options, Catalog* catalog)
    : options_(std::move(options)), catalog_(catalog) {}

ReplicaSyncer::~ReplicaSyncer() { Stop(); }

Status ReplicaSyncer::Start() {
  const Status first = SyncOnce();
  if (!first.ok()) {
    ONEX_LOG_WARN << "replica: bootstrap sync failed (" << first.ToString()
                  << "); will keep polling";
  }
  poller_ = std::thread([this] {
    while (true) {
      {
        MutexLock lock(mutex_);
        const auto interval = std::chrono::duration<double>(
            options_.poll_interval_s > 0 ? options_.poll_interval_s : 1.0);
        cv_.WaitFor(mutex_,
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        interval));
        if (stop_) return;
      }
      const Status synced = SyncOnce();
      if (!synced.ok()) {
        ONEX_LOG_WARN << "replica: sync round failed: " << synced.ToString();
      }
    }
  });
  return first;
}

void ReplicaSyncer::Stop() {
  {
    MutexLock lock(mutex_);
    if (stop_) return;
    stop_ = true;
    cv_.NotifyAll();
  }
  if (poller_.joinable()) poller_.join();
  if (leader_.has_value()) leader_->Close();
}

ReplicaStatus ReplicaSyncer::status() const {
  ReplicaStatus status;
  MutexLock lock(mutex_);
  if (last_sync_ns_ != 0) {
    status.lag_seconds =
        static_cast<double>(NowNs() - last_sync_ns_) / 1e9;
  }
  status.last_applied_seq = last_applied_seq_;
  return status;
}

Result<Client*> ReplicaSyncer::LeaderClient() {
  if (leader_.has_value()) return &*leader_;
  auto connected =
      Client::Connect(options_.leader_host, options_.leader_port);
  if (!connected.ok()) return connected.status();
  leader_.emplace(std::move(connected).value());
  ONEX_LOG_INFO << "replica: connected to leader " << options_.leader_host
                << ":" << options_.leader_port << " ("
                << leader_->greeting() << ")";
  return &*leader_;
}

Status ReplicaSyncer::FetchAndPublish(Client* client,
                                      const std::string& dataset,
                                      const std::string& file) {
  auto fetched = client->FetchArtifact(dataset, file);
  if (!fetched.ok()) return fetched.status();
  const std::string& bytes = fetched.value();
  const std::string path =
      (fs::path(options_.data_dir) / file).string();
  const std::string tmp = path + ".sync.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("open " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::IOError("write " + tmp);
  }
  Status synced = storage::SyncFile(tmp);
  if (!synced.ok()) return synced;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp + " -> " + path);
  }
  return Status::OK();
}

Status ReplicaSyncer::SyncDataset(Client* client,
                                  const storage::ManifestEntry& entry) {
  const auto it = applied_.find(entry.name);
  const storage::ManifestEntry* last =
      it != applied_.end() ? &it->second : nullptr;
  if (last != nullptr && SameEntry(*last, entry)) return Status::OK();

  // Base: re-fetch when the manifest names different bytes than we
  // applied (leader compacted the chain into a fresh snapshot) — or,
  // with no in-memory record (fresh start / restart), when the local
  // file does not already hold exactly those bytes.
  bool need_base;
  if (last != nullptr) {
    need_base = last->base_bytes != entry.base_bytes ||
                last->base_crc != entry.base_crc;
  } else {
    const std::string local =
        (fs::path(options_.data_dir) / entry.base_file).string();
    need_base = !LocalFileMatches(local, entry.base_bytes, entry.base_crc,
                                  /*check_crc=*/true);
  }

  // Deltas: with an unchanged base and an applied prefix that still
  // matches, only the new chain links ship. Any divergence (or a
  // fresh base) refetches the whole chain — links are small.
  size_t first_delta = 0;
  if (!need_base && last != nullptr &&
      SameDeltas(last->deltas, entry.deltas,
                 std::min(last->deltas.size(), entry.deltas.size())) &&
      last->deltas.size() <= entry.deltas.size()) {
    first_delta = last->deltas.size();
  }

  if (need_base) {
    Status fetched = FetchAndPublish(client, entry.name, entry.base_file);
    if (!fetched.ok()) return fetched;
  }
  for (size_t k = first_delta; k < entry.deltas.size(); ++k) {
    Status fetched =
        FetchAndPublish(client, entry.name, entry.deltas[k].file);
    if (!fetched.ok()) return fetched;
  }
  // The WAL tail always rides along on a changed entry: it is the part
  // that moves every round, and its bytes are not CRC-named by the
  // manifest (the leader may have appended since the cut — recovery
  // replays whatever valid prefix arrives).
  Status fetched = FetchAndPublish(client, entry.name, entry.wal_file);
  if (!fetched.ok()) return fetched;

  // Drop local chain links past the manifest's — leftovers of a
  // compaction that recovery would (correctly but noisily) ignore.
  for (uint64_t k = entry.deltas.size() + 1;; ++k) {
    const std::string stale =
        storage::DeltaPathFor(options_.data_dir, entry.name, k);
    std::error_code ec;
    if (!fs::remove(stale, ec)) break;
  }
  Status dir_synced = storage::SyncDir(options_.data_dir);
  if (!dir_synced.ok()) return dir_synced;

  // New artifacts are on disk: drop the resident engine so the next
  // Acquire recovers from them.
  catalog_->Invalidate(entry.name);
  applied_[entry.name] = entry;
  return Status::OK();
}

Status ReplicaSyncer::SyncOnce() {
  auto client = LeaderClient();
  if (!client.ok()) return client.status();
  auto manifest = client.value()->FetchManifest();
  if (!manifest.ok()) {
    // Transport errors poison the session; reconnect next round.
    if (manifest.status().code() == Status::Code::kIOError) {
      leader_->Close();
      leader_.reset();
    }
    return manifest.status();
  }

  Status round = Status::OK();
  uint64_t applied_seq = 0;
  for (const auto& entry : manifest.value().entries) {
    Status synced = SyncDataset(client.value(), entry);
    if (!synced.ok()) {
      ONEX_LOG_WARN << "replica: dataset '" << entry.name
                    << "' sync failed: " << synced.ToString();
      if (round.ok()) round = synced;
      if (synced.code() == Status::Code::kIOError) {
        // The socket may be desynchronized mid-FETCH — abandon it.
        leader_->Close();
        leader_.reset();
        return round;
      }
      continue;
    }
    applied_seq += entry.live_series;
  }
  if (!round.ok()) return round;

  MutexLock lock(mutex_);
  last_sync_ns_ = NowNs();
  last_applied_seq_ = applied_seq;
  return Status::OK();
}

}  // namespace server
}  // namespace onex
