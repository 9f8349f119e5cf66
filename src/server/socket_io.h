// Copyright 2026 The ONEX Reproduction Authors.
// Blocking socket I/O shared by the server's session loop and the
// client: a send-everything loop, a buffered newline reader and the
// one socket option every connection carries. One implementation so
// framing rules (CR stripping, line-length cap) cannot diverge between
// the two ends of the wire.

#ifndef ONEX_SERVER_SOCKET_IO_H_
#define ONEX_SERVER_SOCKET_IO_H_

#include <cstddef>
#include <string>

namespace onex {
namespace server {

/// Writes the whole buffer; best-effort (a dying peer just ends the
/// session on its next read). Returns false on transport failure.
/// Uses MSG_NOSIGNAL so a closed peer cannot raise SIGPIPE.
bool SendAll(int fd, const std::string& data);

/// Sets TCP_NODELAY on a connected socket. Every block on the wire is
/// written whole by one SendAll, so Nagle has nothing to coalesce; it
/// only holds a pipelined reply back until the peer's (possibly
/// delayed) ACK of the previous one.
void SetNoDelay(int fd);

/// Buffered '\n'-delimited reader over a blocking socket. Strips a
/// trailing '\r'; fails on lines longer than `max_line` bytes.
class SocketLineReader {
 public:
  SocketLineReader(int fd, size_t max_line) : fd_(fd), max_line_(max_line) {}

  /// False on EOF, transport error, or an over-long line.
  bool ReadLine(std::string* line);

  /// Reads exactly `n` raw bytes (the FETCH binary chunk path),
  /// draining any bytes already buffered ahead by ReadLine first.
  /// False on EOF or transport error before `n` bytes arrive.
  bool ReadBytes(size_t n, std::string* out);

 private:
  int fd_;
  size_t max_line_;
  std::string buffer_;
};

}  // namespace server
}  // namespace onex

#endif  // ONEX_SERVER_SOCKET_IO_H_
