#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/crc32.h"

namespace onex {
namespace storage {
namespace {

constexpr char kWalMagic[4] = {'O', 'W', 'A', 'L'};
constexpr size_t kHeaderBytes = 4 + sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kRecordHeaderBytes = 2 * sizeof(uint32_t);
/// Per-record payload cap. A payload is one series; 1 GiB of doubles is
/// orders of magnitude past any real series and rejects corrupt length
/// prefixes before they become allocations.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

Status WriteFully(int fd, const char* data, size_t n, const char* what) {
  size_t written = 0;
  while (written < n) {
    const ssize_t w = ::write(fd, data + written, n - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(what) + ": " + std::strerror(errno));
    }
    written += static_cast<size_t>(w);
  }
  return Status::OK();
}

std::string EncodePayload(const TimeSeries& series) {
  std::string payload;
  payload.reserve(1 + sizeof(uint32_t) + sizeof(uint64_t) +
                  series.length() * sizeof(double));
  payload.push_back(static_cast<char>(WalRecordType::kAppendSeries));
  PutU32(&payload, static_cast<uint32_t>(series.label()));
  PutU64(&payload, series.length());
  payload.append(reinterpret_cast<const char*>(series.values().data()),
                 series.length() * sizeof(double));
  return payload;
}

}  // namespace

// --------------------------------------------------------------- writer

Result<WalWriter> WalWriter::Create(const std::string& path,
                                    uint64_t snapshot_series) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("create WAL '" + path + "': " +
                           std::strerror(errno));
  }
  std::string header;
  header.append(kWalMagic, sizeof(kWalMagic));
  PutU32(&header, kWalFormatVersion);
  PutU64(&header, snapshot_series);
  Status written = WriteFully(fd, header.data(), header.size(), "WAL header");
  if (written.ok() && ::fsync(fd) != 0) {
    written = Status::IOError(std::string("fsync WAL header: ") +
                              std::strerror(errno));
  }
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.bytes_ = header.size();
  return writer;
}

Result<WalWriter> WalWriter::OpenForAppend(const std::string& path,
                                           uint64_t offset,
                                           uint64_t records) {
  if (offset < kHeaderBytes) {
    return Status::InvalidArgument("WAL append offset inside the header");
  }
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("open WAL '" + path + "': " +
                           std::strerror(errno));
  }
  // Discard any torn tail so new records are appended to the valid
  // prefix (replay stops at the first bad record; bytes after it would
  // shadow everything we write from here on).
  if (::ftruncate(fd, static_cast<off_t>(offset)) != 0 ||
      ::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    const Status failed = Status::IOError("truncate WAL '" + path + "': " +
                                          std::strerror(errno));
    ::close(fd);
    return failed;
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.bytes_ = offset;
  writer.records_ = records;
  return writer;
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      bytes_(other.bytes_),
      records_(other.records_) {}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    bytes_ = other.bytes_;
    records_ = other.records_;
  }
  return *this;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::Append(const TimeSeries& series) {
  if (fd_ < 0) return Status::IOError("WAL writer is closed");
  const std::string payload = EncodePayload(series);
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU32(&record, Crc32(payload.data(), payload.size()));
  record += payload;
  const Status written =
      WriteFully(fd_, record.data(), record.size(), "WAL record");
  if (!written.ok()) return written;
  bytes_ += record.size();
  ++records_;
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::IOError("WAL writer is closed");
  if (::fsync(fd_) != 0) {
    return Status::IOError(std::string("fsync WAL: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status WalWriter::Rollback(uint64_t bytes, uint64_t discarded_records) {
  if (fd_ < 0) return Status::IOError("WAL writer is closed");
  if (bytes > bytes_ || discarded_records > records_) {
    return Status::InvalidArgument("rollback past the log head");
  }
  bytes_ = bytes;
  records_ -= discarded_records;
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(bytes), SEEK_SET) < 0) {
    const Status failed = Status::IOError(
        std::string("rollback WAL: ") + std::strerror(errno));
    Close();  // Poisoned: never append on top of untracked bytes.
    return failed;
  }
  return Status::OK();
}

// --------------------------------------------------------------- reader

Result<WalContents> ReadWal(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no WAL at '" + path + "'");
    }
    return Status::IOError("open WAL '" + path + "': " +
                           std::strerror(errno));
  }
  // Slurp the file: WALs are bounded by the checkpoint threshold (a few
  // MB), so one read is simpler and faster than record-at-a-time I/O.
  std::string data;
  {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      data.resize(static_cast<size_t>(st.st_size));
    }
    size_t got = 0;
    while (got < data.size()) {
      const ssize_t r = ::read(fd, data.data() + got, data.size() - got);
      if (r < 0) {
        if (errno == EINTR) continue;
        const Status failed = Status::IOError("read WAL '" + path + "': " +
                                              std::strerror(errno));
        ::close(fd);
        return failed;
      }
      if (r == 0) break;  // Shrank underneath us; parse what we got.
      got += static_cast<size_t>(r);
    }
    data.resize(got);
  }
  ::close(fd);

  WalContents contents;
  if (data.size() < kHeaderBytes) {
    // A crash during rotation can leave a short header; the snapshot
    // alone is a consistent state, so report "empty log, torn".
    contents.tail_torn = !data.empty();
    return contents;
  }
  if (std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Corruption("'" + path + "' is not an ONEX WAL");
  }
  uint32_t version = 0;
  std::memcpy(&version, data.data() + 4, sizeof(version));
  if (version != kWalFormatVersion) {
    return Status::Corruption("unsupported WAL version " +
                              std::to_string(version));
  }
  std::memcpy(&contents.snapshot_series, data.data() + 8,
              sizeof(contents.snapshot_series));
  contents.valid_bytes = kHeaderBytes;

  size_t pos = kHeaderBytes;
  while (pos < data.size()) {
    if (data.size() - pos < kRecordHeaderBytes) break;  // Torn header.
    uint32_t payload_bytes = 0;
    uint32_t crc = 0;
    std::memcpy(&payload_bytes, data.data() + pos, sizeof(payload_bytes));
    std::memcpy(&crc, data.data() + pos + 4, sizeof(crc));
    const size_t payload_at = pos + kRecordHeaderBytes;
    if (payload_bytes > kMaxPayloadBytes ||
        data.size() - payload_at < payload_bytes) {
      break;  // Length prefix is garbage or the payload is torn.
    }
    const char* payload = data.data() + payload_at;
    if (Crc32(payload, payload_bytes) != crc) break;  // Corrupt.

    // Decode: [u8 type][u32 label][u64 n][n x f64].
    constexpr size_t kPayloadHeader = 1 + sizeof(uint32_t) + sizeof(uint64_t);
    if (payload_bytes < kPayloadHeader) break;
    if (static_cast<WalRecordType>(payload[0]) !=
        WalRecordType::kAppendSeries) {
      break;  // Unknown type: written by a future version; stop here.
    }
    uint32_t label = 0;
    uint64_t n = 0;
    std::memcpy(&label, payload + 1, sizeof(label));
    std::memcpy(&n, payload + 1 + sizeof(label), sizeof(n));
    // Derive the expected count from the (bounded) payload size rather
    // than multiplying the untrusted n, which could wrap u64 and slip
    // a huge allocation past the check.
    const uint64_t body = payload_bytes - kPayloadHeader;
    if (body % sizeof(double) != 0 || n != body / sizeof(double)) break;
    std::vector<double> values(static_cast<size_t>(n));
    std::memcpy(values.data(), payload + kPayloadHeader, n * sizeof(double));
    contents.records.emplace_back(std::move(values),
                                  static_cast<int>(label));

    pos = payload_at + payload_bytes;
    contents.valid_bytes = pos;
  }
  contents.tail_torn = contents.valid_bytes != data.size();
  return contents;
}

}  // namespace storage
}  // namespace onex
