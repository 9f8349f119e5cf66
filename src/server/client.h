// Copyright 2026 The ONEX Reproduction Authors.
// Client for the ONEX wire protocol. Two modes, one socket:
//
//   BLOCKING (v2): Roundtrip()/Execute() — send one line, read one
//   reply block. Zero threads; what the router's probes and write
//   forwarding, the replica's FETCH session and most tests use.
//
//   ASYNC (v3): Submit() tags the request with an id and returns a
//   Handle immediately; a demultiplexer thread (started lazily on the
//   first Submit) reads blocks off the socket and routes them by id —
//   PART progress frames to the handle's OnProgress callback, the final
//   tagged reply to Handle::Wait(), untagged blocks to whichever
//   Roundtrip is waiting. Handle::Cancel() sends `cancel <id>` without
//   waiting for the query, which is the whole point. Several queries
//   can be in flight at once (pipelined, answered out of order).
//
// One Client is one session (one socket) and never re-dials: when the
// socket dies, every waiter gets the IOError and the session stays
// dead. Whether to dial again and re-submit is the owner's call (the
// router's leg failover does it for reads; nothing retries a write).
// Blocking mode is not thread-safe; once the demux is running,
// Submit/Roundtrip/Cancel may be called from any thread.

#ifndef ONEX_SERVER_CLIENT_H_
#define ONEX_SERVER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "api/engine.h"
#include "server/protocol.h"
#include "storage/manifest.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace onex {
namespace server {

class SocketLineReader;

/// Connection knobs. The defaults block without bound on connect and on
/// IO.
struct ClientOptions {
  /// Bound on ::connect(); 0 = OS default (minutes on a black-holed
  /// route — the router always sets this).
  uint64_t connect_timeout_ms = 0;
  /// Bound on blocking-mode reads and on every send (SO_RCVTIMEO /
  /// SO_SNDTIMEO). The async demux read is exempt on purpose: an idle
  /// multiplexed session legitimately sits quiet between replies, so
  /// in-flight queries are bounded by their deadline budgets instead.
  uint64_t io_timeout_ms = 0;
};

class Client {
 public:
  /// Called with each PART frame of one query, on the demux thread.
  /// Frames are typed per payload shape (v4): use
  /// WireResponse::part_shape() to tell match / GROUP / REC frames
  /// apart; payload rows are byte-identical to final-block rows.
  using ProgressCallback = std::function<void(const WireResponse&)>;

  struct SubmitOptions {
    /// DEADLINE_MS attribute; 0 = unbounded.
    uint64_t deadline_ms = 0;
    /// When set, the request asks for PART frames (progress=1) and the
    /// callback receives them. Prefer passing it here over
    /// Handle::OnProgress — frames can arrive before OnProgress runs.
    ProgressCallback on_progress;
    /// v8 DATASET attribute: run against this dataset instead of the
    /// session's bound one (empty = bound). What the router's upstream
    /// legs use — one multiplexed session serves every dataset.
    std::string dataset;
    /// v5 TRACE attribute: append TRACE lines to the final block.
    bool trace = false;
    /// One-shot completion hook: called once, on the demux thread with
    /// no client lock held, when the final block or a terminal
    /// transport error makes Wait() ready. Fires exactly when Submit
    /// returns a handle, possibly before Submit returns. What lets one
    /// thread gather many in-flight queries in completion order.
    std::function<void()> on_done;
  };

  /// One in-flight tagged query. Cheap to copy; all copies refer to the
  /// same query. Outliving the Client is safe: the handle then reports
  /// the transport as closed.
  class Handle {
   public:
    Handle() = default;

    /// Blocks until the final reply block for this id (which may be an
    /// application-level ERR — that is a successful round trip, same as
    /// Roundtrip). IOError on transport failure.
    Result<WireResponse> Wait();

    /// Cancels the query. OK: the cancel reached a still-running query
    /// (sent `cancel <id>`, acknowledged). NotFound: the query had
    /// already completed — either the final reply is already here (no
    /// round trip made) or the server answered with the structured
    /// no-op ERR; the final reply is still delivered through Wait().
    Status Cancel();

    /// Replaces the progress callback (frames already delivered are
    /// gone). Runs on the demux thread.
    void OnProgress(ProgressCallback callback);

    /// The request id on the wire; 0 for a default-constructed handle.
    uint64_t id() const;

   private:
    friend class Client;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// Connects and consumes the greeting line ("ONEX/<v> ready").
  /// IOError when the server is unreachable.
  static Result<Client> Connect(const std::string& host, uint16_t port);
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                const ClientOptions& options);

  // Moves are unchecked: moving a Client requires external
  // synchronization (both objects thread-confined for the duration), so
  // the guarded demux_ transfer cannot race.
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends one request line (newline appended) and reads the full reply
  /// block. The returned WireResponse may itself be an ERR reply —
  /// that's a successful round trip; IOError only on transport failure.
  /// Works in both modes (in async mode the demux routes untagged
  /// blocks back here in FIFO order).
  Result<WireResponse> Roundtrip(const std::string& line);

  /// Typed convenience: RenderRequestLine + Roundtrip.
  Result<WireResponse> Execute(const QueryRequest& request);

  /// v3 async: tags `request` with a fresh id, sends it, and returns a
  /// handle without waiting. Starts the demux thread on first use — the
  /// session is async from then on.
  Result<Handle> Submit(const QueryRequest& request, SubmitOptions options);
  Result<Handle> Submit(const QueryRequest& request);

  /// v7 replication: sends MANIFEST (the leader cuts a fresh consistent
  /// checkpoint per request) and parses the reply into the typed
  /// manifest. An application-level ERR surfaces as an error status.
  Result<storage::Manifest> FetchManifest();

  /// v7 replication: downloads one artifact of `dataset` (base, delta,
  /// or WAL file — exactly as named by the manifest) and returns its
  /// raw bytes, CRC-verified per chunk and whole. Blocking mode ONLY:
  /// the reply interleaves binary frames the demux thread cannot
  /// route, so this fails once Submit() has started the demux.
  /// NotFound suggests re-fetching the manifest (chain compacted).
  Result<std::string> FetchArtifact(const std::string& dataset,
                                    const std::string& artifact);

  /// The greeting line received at connect time (without newline).
  const std::string& greeting() const { return greeting_; }

  void Close();

 private:
  struct Demux;

  Client() = default;

  /// Reads one '\n'-terminated line into *line (CR stripped); shares
  /// the server's SocketLineReader so framing rules cannot diverge.
  Status ReadLine(std::string* line);

  /// Reads blocks and routes them until the socket dies, then fails
  /// every waiter (demux thread body).
  static void DemuxLoop(std::shared_ptr<Demux> demux);

  /// Starts the demux thread if not yet running (guarded by
  /// demux_mutex_ — two first-Submits racing must not spawn two
  /// readers over one socket) and returns it.
  Result<std::shared_ptr<Demux>> EnsureDemux();

  /// The current demux, or nullptr (blocking mode). Thread-safe.
  std::shared_ptr<Demux> demux() const;

  int fd_ = -1;
  std::unique_ptr<SocketLineReader> reader_;
  std::string greeting_;
  /// Guards the demux_ transition and pointer reads (heap-allocated so
  /// the client stays movable; nullptr only in a moved-from shell).
  /// Client-side ranks sit above every server rank — in-process only in
  /// tests, and client threads never hold server locks.
  mutable std::unique_ptr<Mutex> demux_mutex_ = std::make_unique<Mutex>(
      LockRank::kClientDemuxStart, "client.demux_mutex");
  std::shared_ptr<Demux> demux_ GUARDED_BY(*demux_mutex_);
  /// Atomic: Submit is documented callable from any thread once the
  /// demux runs, and two racing Submits must never share an id.
  std::atomic<uint64_t> next_id_{0};
};

}  // namespace server
}  // namespace onex

#endif  // ONEX_SERVER_CLIENT_H_
