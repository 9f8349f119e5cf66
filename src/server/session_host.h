// Copyright 2026 The ONEX Reproduction Authors.
// The wire session host shared by the data node (server/server.h) and
// the router (router/router.h): the half of serving a connection that
// does not depend on what sits behind it.
//
//   listen socket ──► accept thread ──► one session thread per client
//                     (TCP_NODELAY,      greeting, line reader, parse,
//                      EMFILE back-off,  parse errors, ping/help/quit,
//                      reaps finished    cancel, the in-flight table,
//                      session threads)  and the disconnect rule
//                                               │ every other request
//                                               ▼
//                                        SessionHandler (per tier)
//
// A tier supplies one SessionHandler per connection. It answers `use`,
// queries, append/flush and the introspection verbs, and keeps the
// per-session state that goes with them (the node's bound engine, the
// router's shard-set binding and write link).
//
// Tagged requests (`id=<n>`) multiplex: the handler enters each one in
// the session's in-flight table with a cancel action, answers it from
// another thread (a node worker, a router coordinator), and removes it
// after the final reply is sent. The table answers a duplicate id,
// `cancel <id>` and the admin form `cancel <session>/<id>` (session
// numbers are the fds INSPECT prints). A disconnecting session cancels
// every entry and waits for each to end before the handler goes and the
// socket closes, so nothing writes to a dead fd and no upstream work
// outlives its client.
//
// Stop(): close the listener, join the accept thread, shut down every
// session socket, let the tier drain (the node's job queue, the
// router's upstream pool) so tagged requests end, then join the session
// threads.

#ifndef ONEX_SERVER_SESSION_HOST_H_
#define ONEX_SERVER_SESSION_HOST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace onex {
namespace server {

/// A thread that raises `done` as its last act, so finished ones can be
/// joined while the rest still run (sessions, router coordinators).
struct TrackedThread {
  static TrackedThread Spawn(std::function<void()> body);
  /// Joins and drops the finished entries of `threads`.
  static void ReapFinished(std::vector<TrackedThread>* threads);

  std::thread thread;
  std::shared_ptr<std::atomic<bool>> done;
};

/// One client connection, shared by its session thread and whatever
/// answers its tagged requests. The write mutex serializes whole blocks
/// onto the socket, so multiplexed replies never interleave mid-block.
class Session {
 public:
  explicit Session(int fd) : fd_(fd) {}

  int fd() const { return fd_; }

  /// Writes one whole block (best-effort: a dead peer ends the session
  /// on its next read).
  void Send(const std::string& block);

  /// Enters tagged request `id` with the action that cancels it. When
  /// `id` is already in flight, replies INVALID_ARGUMENT and returns
  /// false.
  bool Track(uint64_t id, std::function<void()> cancel);
  /// Removes `id` once its final reply is sent.
  void Untrack(uint64_t id);

 private:
  friend class SessionHost;

  /// Runs `id`'s cancel action; false when `id` is not in flight.
  bool Cancel(uint64_t id);
  /// Cancels every entry and waits until each is untracked.
  void CancelAllAndWait();

  const int fd_;
  /// A node streams PART frames from inside Engine::Execute, which
  /// holds no engine lock while the query runs.
  Mutex write_mutex_{LockRank::kSessionWrite, "session.write_mutex"};

  /// Cancel actions run with it released: the router's takes its merge
  /// lock, which ranks below.
  Mutex mutex_{LockRank::kSessionState, "session.mutex"};
  CondVar untracked_;
  std::map<uint64_t, std::function<void()>> inflight_ GUARDED_BY(mutex_);
};

/// The tier-specific half of one session. Created on the session thread
/// after the greeting and destroyed after the in-flight table drains;
/// only the session thread calls it.
class SessionHandler {
 public:
  virtual ~SessionHandler() = default;
  /// Answers one parsed request other than ping, help, quit and cancel.
  /// `line` is the raw request line (the router forwards writes as is).
  virtual void Handle(const Request& request, const RequestAttrs& attrs,
                      const std::string& line) = 0;
  /// Counts a line that did not parse (the host has replied).
  virtual void OnBadRequest() {}
};

/// Request lines longer than this are a protocol error and close the
/// session (node and router alike).
constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

class SessionHost {
 public:
  using OpenSession = std::function<std::unique_ptr<SessionHandler>(
      const std::shared_ptr<Session>&)>;

  SessionHost(std::string host, uint16_t port, OpenSession open);
  ~SessionHost();
  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  /// Binds, listens and starts the accept thread. IOError when the
  /// socket cannot be bound, InvalidArgument for a bad host.
  Status Start();

  /// The shutdown sequence in the file comment; `drain` runs after the
  /// session sockets are shut down and before the session threads are
  /// joined. Idempotent.
  void Stop(const std::function<void()>& drain);

  /// The bound TCP port (resolves port 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  /// The fds of the live sessions, ascending.
  std::vector<int> SessionFds() const;

 private:
  void AcceptLoop();
  void RunSession(const std::shared_ptr<Session>& session);
  void AnswerCancel(const std::shared_ptr<Session>& session,
                    const std::string& argument);

  const std::string host_;
  const uint16_t requested_port_;
  const OpenSession open_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};

  /// Outermost rank: a session takes it alone, to find a cancel target
  /// or to leave.
  mutable Mutex mutex_{LockRank::kServerSessions, "session_host.mutex"};
  /// Live sessions by fd: Stop() shuts their sockets down, and the
  /// admin cancel form finds its target here.
  std::map<int, std::shared_ptr<Session>> sessions_ GUARDED_BY(mutex_);
  std::vector<TrackedThread> threads_ GUARDED_BY(mutex_);
  std::thread accept_thread_;
};

}  // namespace server
}  // namespace onex

#endif  // ONEX_SERVER_SESSION_HOST_H_
