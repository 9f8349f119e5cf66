#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "server/socket_io.h"
#include "util/crc32.h"
#include "util/mutex.h"

namespace onex {
namespace server {

namespace {

constexpr size_t kMaxReplyLine = size_t{64} << 20;

Status SetSockTimeout(int fd, int which, uint64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv)) < 0) {
    return Status::IOError(std::string("setsockopt: ") + std::strerror(errno));
  }
  return Status::OK();
}

/// Dials host:port honoring ClientOptions::connect_timeout_ms (via a
/// non-blocking connect + poll), sets TCP_NODELAY and arms
/// SO_RCVTIMEO/SO_SNDTIMEO from io_timeout_ms. Returns the connected fd.
Result<int> DialFd(const std::string& host, uint16_t port,
                   const ClientOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  auto fail = [&](const char* what) -> Status {
    const Status status =
        Status::IOError(std::string(what) + " " + host + ":" +
                        std::to_string(port) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  };
  if (options.connect_timeout_ms > 0) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS) return fail("connect");
    if (rc < 0) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      rc = ::poll(&pfd, 1, static_cast<int>(options.connect_timeout_ms));
      if (rc == 0) {
        errno = ETIMEDOUT;
        return fail("connect");
      }
      if (rc < 0) return fail("poll");
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        errno = err;
        return fail("connect");
      }
    }
    ::fcntl(fd, F_SETFL, flags);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    return fail("connect");
  }
  SetNoDelay(fd);
  if (options.io_timeout_ms > 0) {
    Status armed = SetSockTimeout(fd, SO_RCVTIMEO, options.io_timeout_ms);
    if (armed.ok()) armed = SetSockTimeout(fd, SO_SNDTIMEO, options.io_timeout_ms);
    if (!armed.ok()) {
      ::close(fd);
      return armed;
    }
  }
  return fd;
}

}  // namespace

// ------------------------------------------------------- handle state

/// Shared between the issuing thread, the demux thread, and every copy
/// of the Handle.
struct Client::Handle::State {
  // Both set once in Submit before the state is shared — immutable after.
  uint64_t id = 0;
  std::weak_ptr<Demux> demux;  // For Cancel(); weak: handle may outlive.

  Mutex mutex{LockRank::kClientHandle, "client.handle.mutex"};
  CondVar cv;
  bool done GUARDED_BY(mutex) = false;
  /// Set when done, unless transport died.
  std::optional<WireResponse> final GUARDED_BY(mutex);
  /// Error when the socket failed.
  Status transport GUARDED_BY(mutex) = Status::OK();
  ProgressCallback on_progress GUARDED_BY(mutex);
  /// SubmitOptions::on_done; taken (emptied) by whoever completes.
  std::function<void()> on_done GUARDED_BY(mutex);

  // Cancel-acknowledgement rendezvous (one cancel in flight at a time).
  bool cancel_pending GUARDED_BY(mutex) = false;
  std::optional<WireResponse> cancel_ack GUARDED_BY(mutex);

  /// Makes Wait() ready with `block` (the final) or `reason` (transport
  /// death), once; later calls only release a pending Cancel() on
  /// transport death. The first call also drops both callbacks (no
  /// frame can reach a finished id, and a callback may own whatever
  /// owns this handle) and runs the completion hook, lock released.
  void Complete(std::optional<WireResponse> block, const Status& reason) {
    std::function<void()> hook;
    ProgressCallback progress;
    {
      MutexLock lock(mutex);
      if (!done) {
        done = true;
        final = std::move(block);
        transport = reason;
        hook = std::exchange(on_done, nullptr);
        progress = std::exchange(on_progress, nullptr);
      }
      if (!reason.ok()) cancel_pending = false;
      cv.NotifyAll();
    }
    if (hook) hook();
  }
};

// ------------------------------------------------------------- demux

/// Self-contained async state: the demux thread reads blocks from the
/// socket and routes them; senders serialize on `send_mutex`. Shared by
/// the Client and every Handle so either side may outlive the other.
/// One socket for life: the demux owns it from EnsureDemux on and
/// closes it when the last reference goes, so a late Cancel() sends on
/// a shut-down socket (and fails) rather than on a reissued fd number.
struct Client::Demux {
  Demux(int fd, std::unique_ptr<SocketLineReader> reader)
      : fd(fd), reader(std::move(reader)) {}
  ~Demux() { ::close(fd); }
  Demux(const Demux&) = delete;
  Demux& operator=(const Demux&) = delete;

  const int fd;
  const std::unique_ptr<SocketLineReader> reader;  // Read by the thread.
  std::thread thread;

  /// Whole-line writes from any thread.
  Mutex send_mutex{LockRank::kClientSend, "client.demux.send_mutex"};

  Mutex mutex{LockRank::kClientDemuxState, "client.demux.mutex"};
  std::map<uint64_t, std::shared_ptr<Handle::State>> tagged
      GUARDED_BY(mutex);
  /// FIFO of Roundtrip waiters (untagged blocks answer in order).
  struct Pending {
    Mutex mutex{LockRank::kClientPending, "client.pending.mutex"};
    CondVar cv;
    bool done GUARDED_BY(mutex) = false;
    std::optional<WireResponse> block GUARDED_BY(mutex);
    Status transport GUARDED_BY(mutex) = Status::OK();
  };
  std::deque<std::shared_ptr<Pending>> untagged GUARDED_BY(mutex);
  /// Handles whose Cancel() awaits the no-op ERR ack (final already
  /// delivered, so `tagged` no longer knows the id).
  std::map<uint64_t, std::shared_ptr<Handle::State>> cancel_waiters
      GUARDED_BY(mutex);
  bool dead GUARDED_BY(mutex) = false;
  Status dead_reason GUARDED_BY(mutex) = Status::OK();

  Status Send(const std::string& line) {
    MutexLock lock(send_mutex);
    if (!SendAll(fd, line + "\n")) {
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    return Status::OK();
  }

  /// Fails every waiter with the transport error (the demux is dying).
  void Fail(const Status& reason) {
    std::map<uint64_t, std::shared_ptr<Handle::State>> failed_tagged;
    std::map<uint64_t, std::shared_ptr<Handle::State>> failed_cancels;
    std::deque<std::shared_ptr<Pending>> failed_untagged;
    {
      MutexLock lock(mutex);
      dead = true;
      dead_reason = reason;
      failed_tagged.swap(tagged);
      failed_cancels.swap(cancel_waiters);
      failed_untagged.swap(untagged);
    }
    for (auto& [id, state] : failed_tagged) state->Complete({}, reason);
    for (auto& [id, state] : failed_cancels) state->Complete({}, reason);
    for (auto& pending : failed_untagged) {
      MutexLock lock(pending->mutex);
      pending->done = true;
      pending->transport = reason;
      pending->cv.NotifyAll();
    }
  }
};

void Client::DemuxLoop(std::shared_ptr<Demux> demux) {
  std::vector<std::string> lines;
  std::string line;
  while (true) {
    lines.clear();
    bool eof = false;
    while (true) {
      if (!demux->reader->ReadLine(&line)) {
        eof = true;
        break;
      }
      if (line == ".") break;
      lines.push_back(line);
    }
    if (eof) {
      demux->Fail(Status::IOError("connection closed or read failed"));
      return;
    }
    auto parsed = ParseResponseBlock(lines);
    if (!parsed.ok()) {
      demux->Fail(parsed.status());
      return;
    }
    WireResponse block = std::move(parsed).value();
    const uint64_t id = block.id();

    auto find_tagged = [&](uint64_t key, bool erase) {
      std::shared_ptr<Handle::State> state;
      MutexLock lock(demux->mutex);
      auto it = demux->tagged.find(key);
      if (it != demux->tagged.end()) {
        state = it->second;
        if (erase) demux->tagged.erase(it);
      }
      return state;
    };
    /// Hands `block` to a Handle::Cancel() waiting on `state`; false if
    /// nobody is waiting there.
    auto deliver_cancel_ack = [&](std::shared_ptr<Handle::State> state) {
      if (state == nullptr) return false;
      MutexLock lock(state->mutex);
      if (!state->cancel_pending) return false;
      state->cancel_ack = block;
      state->cancel_pending = false;
      state->cv.NotifyAll();
      return true;
    };
    /// Answers the oldest blocking Roundtrip (the untagged FIFO).
    auto deliver_untagged = [&] {
      std::shared_ptr<Demux::Pending> pending;
      {
        MutexLock lock(demux->mutex);
        if (!demux->untagged.empty()) {
          pending = demux->untagged.front();
          demux->untagged.pop_front();
        }
      }
      if (pending != nullptr) {
        MutexLock lock(pending->mutex);
        pending->block = std::move(block);
        pending->done = true;
        pending->cv.NotifyAll();
      }
    };

    // Routing. The server's completion path sends the final reply
    // BEFORE unregistering the id, so on this (ordered) socket a
    // cancel acknowledgement can never overtake its query's final
    // block — which makes the rules below unambiguous.
    if (block.ok && block.kind == "Cancel") {
      // A cancel acknowledgement. Handle::Cancel registers itself in
      // cancel_waiters BEFORE sending the line, so the waiter is found
      // there even when the query's final overtook the cancel and the
      // tagged entry is already gone (the server can answer OK Cancel
      // in that window: it sends the final before erasing its token).
      // No waiter = the cancel line came from a raw Roundtrip — answer
      // that instead (never a query's final).
      std::shared_ptr<Handle::State> waiter;
      {
        MutexLock lock(demux->mutex);
        auto it = demux->cancel_waiters.find(id);
        if (it != demux->cancel_waiters.end()) {
          waiter = it->second;
          demux->cancel_waiters.erase(it);
        }
      }
      if (!deliver_cancel_ack(waiter)) deliver_untagged();
      continue;
    }
    if (block.part) {
      auto state = find_tagged(id, /*erase=*/false);
      if (state != nullptr) {
        ProgressCallback callback;
        {
          MutexLock lock(state->mutex);
          callback = state->on_progress;
        }
        if (callback) callback(block);
      }
      continue;
    }
    if (id != 0) {
      if (auto state = find_tagged(id, /*erase=*/true)) {
        // The final reply for this id.
        state->Complete(std::move(block), Status::OK());
        continue;
      }
      // Not in flight: the structured no-op ERR acknowledging a CANCEL
      // that lost the race with completion. Route it to the handle
      // waiting on Cancel(), if any; otherwise fall through to the
      // untagged path (a raw `cancel <id>` sent via Roundtrip earns an
      // id-tagged ERR that must still answer that Roundtrip).
      std::shared_ptr<Handle::State> canceller;
      {
        MutexLock lock(demux->mutex);
        auto it = demux->cancel_waiters.find(id);
        if (it != demux->cancel_waiters.end()) {
          canceller = it->second;
          demux->cancel_waiters.erase(it);
        }
      }
      if (deliver_cancel_ack(canceller)) continue;
    }
    deliver_untagged();
  }
}

// -------------------------------------------------------------- handle

Result<WireResponse> Client::Handle::Wait() {
  if (state_ == nullptr) return Status::InvalidArgument("empty handle");
  MutexLock lock(state_->mutex);
  while (!state_->done) state_->cv.Wait(state_->mutex);
  if (!state_->transport.ok()) return state_->transport;
  return *state_->final;
}

Status Client::Handle::Cancel() {
  if (state_ == nullptr) return Status::InvalidArgument("empty handle");
  auto demux = state_->demux.lock();
  if (demux == nullptr) return Status::IOError("client is closed");
  {
    MutexLock lock(state_->mutex);
    if (state_->done) {
      // The final reply is already here — nothing left to cancel. Skip
      // the wire round trip: asking the server would race its own
      // token cleanup (it can still ack OK in the instant between
      // sending the final and forgetting the id).
      if (!state_->transport.ok()) return state_->transport;
      return Status::NotFound("query had already completed");
    }
    if (state_->cancel_pending) {
      // Another copy of this handle is already cancelling; share its
      // outcome instead of putting a second `cancel` on the wire (two
      // acks would outnumber the one registered waiter).
      while (state_->cancel_pending && state_->transport.ok()) {
        state_->cv.Wait(state_->mutex);
      }
      if (!state_->transport.ok()) return state_->transport;
      if (state_->cancel_ack.has_value() && state_->cancel_ack->ok) {
        return Status::OK();
      }
      return Status::NotFound("query had already completed");
    }
    state_->cancel_pending = true;
    state_->cancel_ack.reset();
  }
  // Register for the no-op-ack path (final may already be in flight).
  {
    MutexLock lock(demux->mutex);
    if (demux->dead) {
      MutexLock state_lock(state_->mutex);
      state_->cancel_pending = false;
      return demux->dead_reason;
    }
    demux->cancel_waiters[state_->id] = state_;
  }
  const Status sent = demux->Send(RenderCancelLine(state_->id));
  if (!sent.ok()) {
    {
      MutexLock lock(demux->mutex);
      demux->cancel_waiters.erase(state_->id);
    }
    MutexLock lock(state_->mutex);
    state_->cancel_pending = false;
    state_->cv.NotifyAll();
    return sent;
  }
  std::optional<WireResponse> ack;
  {
    MutexLock lock(state_->mutex);
    while (state_->cancel_pending && state_->transport.ok()) {
      state_->cv.Wait(state_->mutex);
    }
    if (!state_->transport.ok()) return state_->transport;
    ack = state_->cancel_ack;
  }
  {
    // Drop the rendezvous registration (the OK-Cancel path resolves
    // through `tagged`, leaving this entry behind otherwise).
    MutexLock lock(demux->mutex);
    demux->cancel_waiters.erase(state_->id);
  }
  return ack.has_value() && ack->ok
             ? Status::OK()
             : Status::NotFound("query had already completed");
}

void Client::Handle::OnProgress(ProgressCallback callback) {
  if (state_ == nullptr) return;
  MutexLock lock(state_->mutex);
  state_->on_progress = std::move(callback);
}

uint64_t Client::Handle::id() const {
  return state_ != nullptr ? state_->id : 0;
}

// -------------------------------------------------------------- client

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  return Connect(host, port, ClientOptions());
}

Result<Client> Client::Connect(const std::string& host, uint16_t port,
                               const ClientOptions& options) {
  auto dialed = DialFd(host, port, options);
  if (!dialed.ok()) return dialed.status();
  Client client;
  client.fd_ = dialed.value();
  const Status greeted = client.ReadLine(&client.greeting_);
  if (!greeted.ok()) return greeted;
  return client;
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::move(other.reader_)),
      greeting_(std::move(other.greeting_)),
      demux_mutex_(std::move(other.demux_mutex_)),
      demux_(std::move(other.demux_)),
      next_id_(other.next_id_.load()) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
    greeting_ = std::move(other.greeting_);
    demux_mutex_ = std::move(other.demux_mutex_);
    demux_ = std::move(other.demux_);
    next_id_.store(other.next_id_.load());
  }
  return *this;
}

Client::~Client() { Close(); }

void Client::Close() {
  // Take the demux out under the lock (the pointer read used to be
  // unguarded, racing a concurrent first Submit's EnsureDemux), then
  // shut down and join OUTSIDE it — the join can block until the demux
  // thread notices the socket died. A moved-from shell has no mutex
  // and nothing to close.
  std::shared_ptr<Demux> demux;
  if (demux_mutex_ != nullptr) {
    MutexLock lock(*demux_mutex_);
    demux = std::move(demux_);
    demux_ = nullptr;
  }
  if (demux != nullptr) {
    // Unblock the demux thread's read and reap it; Fail runs on the
    // demux thread on its way out. The demux owns the socket once
    // started and closes it with its last reference.
    ::shutdown(demux->fd, SHUT_RDWR);
    if (demux->thread.joinable()) demux->thread.join();
    fd_ = -1;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    reader_.reset();
  }
}

Status Client::ReadLine(std::string* line) {
  if (reader_ == nullptr) {
    // Replies are bounded by the server's own rendering; 64 MB guards
    // against a runaway/hostile peer without capping legitimate blocks.
    reader_ = std::make_unique<SocketLineReader>(fd_, kMaxReplyLine);
  }
  if (!reader_->ReadLine(line)) {
    return Status::IOError("connection closed or read failed");
  }
  return Status::OK();
}

std::shared_ptr<Client::Demux> Client::demux() const {
  MutexLock lock(*demux_mutex_);
  return demux_;
}

Result<std::shared_ptr<Client::Demux>> Client::EnsureDemux() {
  MutexLock start_lock(*demux_mutex_);
  if (demux_ != nullptr) {
    MutexLock lock(demux_->mutex);
    if (demux_->dead) return demux_->dead_reason;
    return demux_;
  }
  if (fd_ < 0) return Status::IOError("client is closed");
  // The async read waits indefinitely by design — an idle session is
  // legitimately quiet between replies (see ClientOptions). Sends keep
  // their timeout.
  SetSockTimeout(fd_, SO_RCVTIMEO, 0);
  if (reader_ == nullptr) {
    reader_ = std::make_unique<SocketLineReader>(fd_, kMaxReplyLine);
  }
  // The demux owns the socket and its reader from here on.
  demux_ = std::make_shared<Demux>(fd_, std::move(reader_));
  demux_->thread = std::thread([demux = demux_] { DemuxLoop(demux); });
  return demux_;
}

Result<Client::Handle> Client::Submit(const QueryRequest& request) {
  return Submit(request, SubmitOptions());
}

Result<Client::Handle> Client::Submit(const QueryRequest& request,
                                      SubmitOptions options) {
  auto started = EnsureDemux();
  if (!started.ok()) return started.status();
  std::shared_ptr<Demux> demux = std::move(started).value();

  Handle handle;
  handle.state_ = std::make_shared<Handle::State>();
  handle.state_->id = next_id_.fetch_add(1) + 1;
  handle.state_->demux = demux;
  handle.state_->on_progress = options.on_progress;
  handle.state_->on_done = std::move(options.on_done);

  RequestAttrs attrs;
  attrs.id = handle.state_->id;
  attrs.deadline_ms = options.deadline_ms;
  attrs.progress = static_cast<bool>(options.on_progress);
  attrs.trace = options.trace;
  attrs.dataset = options.dataset;
  const std::string line = RenderRequestLine(request, attrs);
  {
    MutexLock lock(demux->mutex);
    if (demux->dead) return demux->dead_reason;
    demux->tagged[handle.state_->id] = handle.state_;
  }
  const Status sent = demux->Send(line);
  if (!sent.ok()) {
    // Still registered: withdraw it, and the hook never fires. Gone:
    // the dying demux already completed it (hook fired or firing), so
    // hand the handle out — its Wait() reports the transport error.
    MutexLock lock(demux->mutex);
    if (demux->tagged.erase(handle.state_->id) > 0) return sent;
  }
  return handle;
}

Result<WireResponse> Client::Roundtrip(const std::string& line) {
  if (fd_ < 0) return Status::IOError("client is closed");

  if (std::shared_ptr<Demux> active = demux()) {
    // Async mode: enqueue an untagged waiter, send, block on it.
    auto pending = std::make_shared<Demux::Pending>();
    {
      MutexLock lock(active->mutex);
      if (active->dead) return active->dead_reason;
      active->untagged.push_back(pending);
    }
    const Status sent = active->Send(line);
    if (!sent.ok()) {
      // Withdraw the waiter, or the NEXT reply block would be handed
      // to it and every later Roundtrip would read one block behind.
      MutexLock lock(active->mutex);
      auto it = std::find(active->untagged.begin(), active->untagged.end(),
                          pending);
      if (it != active->untagged.end()) active->untagged.erase(it);
      return sent;
    }
    MutexLock lock(pending->mutex);
    while (!pending->done) pending->cv.Wait(pending->mutex);
    if (!pending->transport.ok()) return pending->transport;
    return *pending->block;
  }

  // Blocking mode (v2): single-threaded send + read.
  if (!SendAll(fd_, line + "\n")) {
    return Status::IOError(std::string("send: ") + std::strerror(errno));
  }
  std::vector<std::string> lines;
  while (true) {
    std::string reply_line;
    const Status read = ReadLine(&reply_line);
    if (!read.ok()) return read;
    if (reply_line == ".") break;
    lines.push_back(std::move(reply_line));
  }
  return ParseResponseBlock(lines);
}

Result<WireResponse> Client::Execute(const QueryRequest& request) {
  return Roundtrip(RenderRequestLine(request));
}

Result<storage::Manifest> Client::FetchManifest() {
  auto reply = Roundtrip("manifest");
  if (!reply.ok()) return reply.status();
  const WireResponse& block = reply.value();
  if (!block.ok) {
    return Status::IOError("MANIFEST failed: " + block.code +
                           (block.message.empty() ? "" : " " + block.message));
  }
  return ParseManifestPayload(block.payload, block.header);
}

Result<std::string> Client::FetchArtifact(const std::string& dataset,
                                          const std::string& artifact) {
  if (fd_ < 0) return Status::IOError("client is closed");
  if (demux() != nullptr) {
    // The demux owns the socket reader and routes whole line-oriented
    // blocks; a FETCH reply's binary chunk frames would desynchronize
    // it. Replication uses a dedicated blocking-mode client.
    return Status::NotSupported(
        "FETCH requires a blocking-mode client (no Submit on this session)");
  }
  if (!SendAll(fd_, "fetch " + dataset + " " + artifact + "\n")) {
    return Status::IOError(std::string("send: ") + std::strerror(errno));
  }
  std::string header;
  Status read = ReadLine(&header);
  if (!read.ok()) return read;
  if (header.rfind("OK Fetch", 0) != 0) {
    // An ERR block: collect it through the terminator so the socket
    // stays framed, then surface the status.
    std::vector<std::string> lines{header};
    while (true) {
      std::string line;
      read = ReadLine(&line);
      if (!read.ok()) return read;
      if (line == ".") break;
      lines.push_back(std::move(line));
    }
    auto parsed = ParseResponseBlock(lines);
    if (!parsed.ok()) return parsed.status();
    const WireResponse& err = parsed.value();
    if (err.code == "NOT_FOUND") {
      return Status::NotFound(err.message);
    }
    return Status::IOError("FETCH failed: " + err.code +
                           (err.message.empty() ? "" : " " + err.message));
  }

  const auto fields = ParseKeyValues(header);
  auto need_u64 = [&fields](const char* key, uint64_t* out) {
    auto it = fields.find(key);
    if (it == fields.end()) return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str() || *end != '\0') return false;
    *out = v;
    return true;
  };
  uint64_t total_bytes = 0, total_crc = 0, chunks = 0;
  if (!need_u64("bytes", &total_bytes) || !need_u64("crc32", &total_crc) ||
      !need_u64("chunks", &chunks)) {
    return Status::Corruption("malformed FETCH header: " + header);
  }

  // The declared size comes from the peer: reserve no more than one
  // reply line may hold, so a hostile header cannot force a huge
  // allocation (the size check below still rejects a short body).
  std::string body;
  body.reserve(std::min<uint64_t>(total_bytes, kMaxReplyLine));
  std::string frame;
  auto read_u32 = [](const std::string& buf, size_t at) {
    return static_cast<uint32_t>(static_cast<unsigned char>(buf[at])) |
           static_cast<uint32_t>(static_cast<unsigned char>(buf[at + 1])) << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(buf[at + 2]))
               << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(buf[at + 3]))
               << 24;
  };
  for (uint64_t i = 0; i < chunks; ++i) {
    if (!reader_->ReadBytes(8, &frame)) {
      return Status::IOError("connection closed mid-chunk");
    }
    const uint32_t len = read_u32(frame, 0);
    const uint32_t chunk_crc = read_u32(frame, 4);
    if (body.size() + len > total_bytes) {
      return Status::Corruption("FETCH chunks overflow declared size");
    }
    if (!reader_->ReadBytes(len, &frame)) {
      return Status::IOError("connection closed mid-chunk");
    }
    if (Crc32(frame.data(), frame.size()) != chunk_crc) {
      return Status::Corruption("FETCH chunk " + std::to_string(i) +
                                " CRC mismatch");
    }
    body += frame;
  }
  std::string terminator;
  read = ReadLine(&terminator);
  if (!read.ok()) return read;
  if (terminator != ".") {
    return Status::Corruption("FETCH reply not terminated");
  }
  if (body.size() != total_bytes ||
      Crc32(body.data(), body.size()) != static_cast<uint32_t>(total_crc)) {
    return Status::Corruption("FETCH artifact " + artifact +
                              " failed whole-file CRC/size check");
  }
  return body;
}

}  // namespace server
}  // namespace onex
