#include "server/socket_io.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>

namespace onex {
namespace server {

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool SocketLineReader::ReadLine(std::string* line) {
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    if (buffer_.size() > max_line_) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool SocketLineReader::ReadBytes(size_t n, std::string* out) {
  out->clear();
  // Bytes past the last consumed newline belong to this read.
  const size_t from_buffer = std::min(n, buffer_.size());
  out->append(buffer_, 0, from_buffer);
  buffer_.erase(0, from_buffer);
  while (out->size() < n) {
    char chunk[4096];
    const size_t want = std::min(n - out->size(), sizeof(chunk));
    const ssize_t got = ::recv(fd_, chunk, want, 0);
    if (got <= 0) return false;
    out->append(chunk, static_cast<size_t>(got));
  }
  return true;
}

}  // namespace server
}  // namespace onex
