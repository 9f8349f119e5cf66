#include "server/session_host.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "server/socket_io.h"

namespace onex {
namespace server {

TrackedThread TrackedThread::Spawn(std::function<void()> body) {
  auto done = std::make_shared<std::atomic<bool>>(false);
  return {std::thread([body = std::move(body), done] {
            body();
            done->store(true);
          }),
          done};
}

void TrackedThread::ReapFinished(std::vector<TrackedThread>* threads) {
  const auto finished = std::stable_partition(
      threads->begin(), threads->end(),
      [](const TrackedThread& t) { return !t.done->load(); });
  for (auto it = finished; it != threads->end(); ++it) it->thread.join();
  threads->erase(finished, threads->end());
}

void Session::Send(const std::string& block) {
  MutexLock lock(write_mutex_);
  SendAll(fd_, block);
}

bool Session::Track(uint64_t id, std::function<void()> cancel) {
  {
    MutexLock lock(mutex_);
    if (inflight_.emplace(id, std::move(cancel)).second) return true;
  }
  Send(RenderErrorBlock("INVALID_ARGUMENT",
                        "id " + std::to_string(id) + " is already in flight",
                        id));
  return false;
}

void Session::Untrack(uint64_t id) {
  {
    MutexLock lock(mutex_);
    inflight_.erase(id);
  }
  untracked_.NotifyAll();
}

bool Session::Cancel(uint64_t id) {
  std::function<void()> cancel;
  {
    MutexLock lock(mutex_);
    const auto it = inflight_.find(id);
    if (it == inflight_.end()) return false;
    cancel = it->second;
  }
  cancel();
  return true;
}

void Session::CancelAllAndWait() {
  std::vector<std::function<void()>> cancels;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, cancel] : inflight_) cancels.push_back(cancel);
  }
  for (const auto& cancel : cancels) cancel();
  MutexLock lock(mutex_);
  while (!inflight_.empty()) untracked_.Wait(mutex_);
}

SessionHost::SessionHost(std::string host, uint16_t port, OpenSession open)
    : host_(std::move(host)), requested_port_(port), open_(std::move(open)) {}

SessionHost::~SessionHost() { Stop({}); }

Status SessionHost::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(requested_port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host '" + host_ + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError("bind " + host_ + ":" +
                           std::to_string(requested_port_) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SessionHost::AcceptLoop() {
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load()) break;
      // Transient (EINTR) or resource exhaustion (EMFILE): back off
      // briefly instead of spinning at 100% CPU exactly when the
      // process is starved for fds.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    SetNoDelay(fd);
    auto session = std::make_shared<Session>(fd);
    // Registered here, not on the session thread, so Stop() can never
    // miss a session that has not started reading yet.
    MutexLock lock(mutex_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    TrackedThread::ReapFinished(&threads_);
    sessions_[fd] = session;
    threads_.push_back(
        TrackedThread::Spawn([this, session] { RunSession(session); }));
  }
}

void SessionHost::RunSession(const std::shared_ptr<Session>& session) {
  session->Send(Greeting());
  std::unique_ptr<SessionHandler> handler = open_(session);

  SocketLineReader reader(session->fd(), kMaxRequestLineBytes);
  std::string line;
  while (!stop_.load() && reader.ReadLine(&line)) {
    if (line.empty()) continue;
    RequestAttrs attrs;
    auto parsed = ParseRequestLine(line, &attrs);
    if (!parsed.ok()) {
      handler->OnBadRequest();
      // Echo the id: a tagged request that fails to parse must still
      // complete, or every later untagged reply is off by one.
      session->Send(RenderError(parsed.status(), attrs.id));
      continue;
    }
    const auto* control = std::get_if<ControlRequest>(&parsed.value());
    if (control == nullptr) {
      handler->Handle(parsed.value(), attrs, line);
    } else if (control->verb == ControlVerb::kQuit) {
      session->Send("OK Bye\n.\n");
      break;
    } else if (control->verb == ControlVerb::kPing) {
      session->Send("OK Pong\n.\n");
    } else if (control->verb == ControlVerb::kHelp) {
      session->Send(RenderHelp());
    } else if (control->verb == ControlVerb::kCancel) {
      AnswerCancel(session, control->argument);
    } else {
      handler->Handle(parsed.value(), attrs, line);
    }
  }

  session->CancelAllAndWait();
  handler.reset();
  {
    MutexLock lock(mutex_);
    sessions_.erase(session->fd());
  }
  ::close(session->fd());
}

void SessionHost::AnswerCancel(const std::shared_ptr<Session>& session,
                               const std::string& argument) {
  // Parse validated the integers already.
  const size_t slash = argument.find('/');
  const bool admin = slash != std::string::npos;
  std::shared_ptr<Session> target = session;
  if (admin) {
    const int fd =
        static_cast<int>(std::strtoull(argument.c_str(), nullptr, 10));
    MutexLock lock(mutex_);
    const auto it = sessions_.find(fd);
    target = it == sessions_.end() ? nullptr : it->second;
  }
  const uint64_t id =
      std::strtoull(argument.c_str() + (admin ? slash + 1 : 0), nullptr, 10);
  if (target != nullptr && target->Cancel(id)) {
    session->Send("OK Cancel " +
                  (admin ? "target=" + argument : "id=" + std::to_string(id)) +
                  "\n.\n");
    return;
  }
  // An unknown id is a structured no-op: the query may have completed a
  // microsecond ago, a race the client cannot avoid. Same for an unknown
  // session in the admin form: it may have just disconnected.
  session->Send(RenderErrorBlock(
      "NOT_FOUND",
      target != nullptr
          ? "no in-flight query with id " + std::to_string(id) +
                " — already completed, or never sent"
          : "no session " + argument.substr(0, slash) +
                " — check INSPECT for live session fds",
      admin ? 0 : id));
}

void SessionHost::Stop(const std::function<void()>& drain) {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;

  // 1. No new connections.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Unblock session reads. A session waiting on its tier (an
  //    untagged query, or its in-flight table at disconnect) stays put
  //    until the drain ends that work.
  {
    MutexLock lock(mutex_);
    for (const auto& [fd, session] : sessions_) ::shutdown(fd, SHUT_RDWR);
  }

  // 3. The tier finishes or fails everything it accepted.
  if (drain) drain();

  // 4. Join outside the lock: a leaving session takes it to erase
  //    itself. The accept thread is gone, so no new entries appear.
  std::vector<TrackedThread> to_join;
  {
    MutexLock lock(mutex_);
    to_join.swap(threads_);
  }
  for (TrackedThread& thread : to_join) {
    if (thread.thread.joinable()) thread.thread.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

std::vector<int> SessionHost::SessionFds() const {
  std::vector<int> fds;
  MutexLock lock(mutex_);
  for (const auto& [fd, session] : sessions_) fds.push_back(fd);
  return fds;
}

}  // namespace server
}  // namespace onex
