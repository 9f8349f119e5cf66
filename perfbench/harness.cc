#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <limits>
#include <sstream>
#include <thread>

#include "server/socket_io.h"
#include "util/process_stats.h"

namespace perfbench {

namespace fs = std::filesystem;
using onex::server::WireResponse;

// ------------------------------------------------------------- report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, Value{value, unit});
}

void Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 5) std::cerr << "failed: " << what << "\n";
}

void Report::Wrong(const std::string& what) {
  correct_ = false;
  Op(false, "wrong answer: " + what);
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    // JSON has no infinity; a metric made infinite by failed requests
    // prints as the largest double so it still fails every bound.
    double v = metrics_[i].second.value;
    if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", v);
    out << (i ? ", " : "") << "\"" << metrics_[i].first
        << "\": {\"value\": " << number << ", \"unit\": \""
        << metrics_[i].second.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ------------------------------------------------------------- tracer

uint64_t Tracer::Add(const std::string& name, Clock::time_point start,
                     Clock::time_point end, uint64_t parent,
                     uint64_t request) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, start, end, parent, request});
  return spans_.size();
}

uint64_t Tracer::Begin(const std::string& name, uint64_t parent,
                       uint64_t request) {
  const auto now = Clock::now();
  return Add(name, now, now, parent, request);
}

void Tracer::End(uint64_t id) {
  if (id != 0) spans_[id - 1].end = Clock::now();
}

void Tracer::Write(const std::string& path) const {
  if (!enabled_ || spans_.empty()) return;
  std::ofstream out(path);
  const auto origin = spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  // Self time: each span's duration minus the union of its children's
  // intervals (children of one parent never overlap here: the benchmark
  // makes its calls one at a time).
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent - 1] += us(s.end) - us(s.start);
  }
  std::map<std::string, std::pair<uint64_t, double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << us(s.start) << ", \"end_us\": "
        << us(s.end) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
    auto& entry = self[s.name];
    entry.first += 1;
    entry.second += us(s.end) - us(s.start) - child_us[i];
  }
  for (const auto& [name, entry] : self) {
    out << "{\"self_time\": \"" << name << "\", \"spans\": " << entry.first
        << ", \"self_us\": " << entry.second << "}\n";
  }
}

// ------------------------------------------------------------- stats

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double RssMb() {
  return static_cast<double>(onex::SampleProcessStats().rss_bytes) /
         (1024.0 * 1024.0);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// --------------------------------------------------------- trace lines

namespace {

double KeyMs(const std::map<std::string, std::string>& kv,
             const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr) / 1e3;
}

uint64_t KeyCount(const std::map<std::string, std::string>& kv,
                  const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

std::string AnswerText(const WireResponse& reply) {
  std::string out = reply.ok ? "OK " + reply.kind : "ERR " + reply.code;
  for (const auto& [key, value] : reply.header) {
    if (key != "latency_us") out += " " + key + "=" + value;
  }
  if (!reply.ok) out += " " + reply.message;
  for (const std::string& line : reply.payload) {
    if (!HasPrefix(line, "trace ")) out += "\n" + line;
  }
  return out;
}

TraceInfo ParseTrace(const WireResponse& reply) {
  TraceInfo info;
  for (const std::string& line : reply.payload) {
    if (HasPrefix(line, "trace stage ")) {
      const auto kv = onex::server::ParseKeyValues(line);
      const double queue = KeyMs(kv, "queue_wait_us");
      const double exec = KeyMs(kv, "exec_us");
      // Keep the leg on the critical path (largest queue + exec).
      if (!info.present || queue + exec > info.queue_wait_ms + info.exec_ms) {
        info.queue_wait_ms = queue;
        info.exec_ms = exec;
        info.rep_scan_ms = KeyMs(kv, "rep_scan_us");
        info.member_scan_ms = KeyMs(kv, "member_scan_us");
        info.knn_ms = KeyMs(kv, "knn_us");
        info.refine_ms = KeyMs(kv, "refine_us");
      }
      info.present = true;
    } else if (HasPrefix(line, "trace cascade ")) {
      const auto kv = onex::server::ParseKeyValues(line);
      info.seen += KeyCount(kv, "seen");
      info.kim_pruned += KeyCount(kv, "kim_pruned");
      info.keogh_pruned += KeyCount(kv, "keogh_pruned");
      info.dtw_evaluated += KeyCount(kv, "dtw_evaluated");
      info.early_abandoned += KeyCount(kv, "early_abandoned");
    }
  }
  return info;
}

std::string AnswerText(const onex::QueryResponse& response, uint64_t id) {
  std::vector<std::string> lines;
  std::istringstream in(onex::server::RenderResponse(response, id));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  auto parsed = onex::server::ParseResponseBlock(lines);
  return parsed.ok() ? AnswerText(parsed.value()) : "unparseable";
}

double ScrapeValue(const std::string& exposition, const std::string& name) {
  std::istringstream in(exposition);
  for (std::string line; std::getline(in, line);) {
    if (HasPrefix(line, name.c_str()) && line.size() > name.size() &&
        line[name.size()] == ' ') {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0.0;
}

// ----------------------------------------------------------- open loop

WireSession::~WireSession() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireSession::Open(uint16_t port, const std::string& target) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd_ < 0 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  // The node writes replies with Nagle's algorithm on. Against a client
  // that delays its ACKs, a reply that finds the previous one unacked
  // waits for the client's next request to carry the ACK, and once one
  // read outlasts the send interval every later reply waits one
  // interval (NOTES.md). The generator acknowledges at once and sends
  // without delay, so the latency it reports is the program's own.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  QuickAck();
  // The greeting is one line, not a block.
  while (buffer_.find('\n') == std::string::npos) {
    char chunk[256];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  buffer_.erase(0, buffer_.find('\n') + 1);
  auto bound = Roundtrip("use " + target);
  return bound && bound->ok;
}

void WireSession::QuickAck() {
  // Linux clears TCP_QUICKACK as the connection runs; re-arm per read.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

bool WireSession::Send(const std::string& line) {
  return onex::server::SendAll(fd_, line + "\n");
}

bool WireSession::Drain(std::vector<WireResponse>* blocks) {
  size_t eol;
  while ((eol = buffer_.find('\n')) != std::string::npos) {
    std::string line = buffer_.substr(0, eol);
    buffer_.erase(0, eol + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line != ".") {
      block_.push_back(std::move(line));
      continue;
    }
    auto parsed = onex::server::ParseResponseBlock(block_);
    block_.clear();
    if (!parsed.ok()) return false;
    blocks->push_back(std::move(parsed).value());
  }
  return true;
}

bool WireSession::Poll(Clock::duration timeout,
                       std::vector<WireResponse>* blocks) {
  pollfd pfd{fd_, POLLIN, 0};
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
  timespec ts{static_cast<time_t>(ns / 1000000000),
              static_cast<long>(ns % 1000000000)};
  const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
  if (rc < 0) return errno == EINTR;
  if (rc == 0) return true;
  char chunk[1 << 16];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
  QuickAck();
  if (n <= 0) return n < 0 && (errno == EAGAIN || errno == EINTR);
  buffer_.append(chunk, static_cast<size_t>(n));
  return Drain(blocks);
}

std::optional<WireResponse> WireSession::Roundtrip(const std::string& line) {
  if (!Send(line)) return std::nullopt;
  std::vector<WireResponse> blocks;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (blocks.empty() && Clock::now() < deadline) {
    if (!Poll(std::chrono::milliseconds(100), &blocks)) return std::nullopt;
  }
  if (blocks.empty()) return std::nullopt;
  return std::move(blocks.front());
}

LoadResult RunOpenLoop(const LoadPlan& plan, WireSession* reader,
                       WireSession* writer, Tracer* tracer) {
  LoadResult result;
  auto period = [](double rate) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
  };
  const size_t num_reads =
      plan.read_rate > 0 ? static_cast<size_t>(plan.seconds * plan.read_rate)
                         : 0;
  const size_t num_appends =
      plan.appends != nullptr && plan.append_rate > 0
          ? std::min(plan.appends->size(),
                     static_cast<size_t>(plan.seconds * plan.append_rate))
          : 0;
  result.reads.resize(num_reads);
  result.appends.resize(num_appends);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto read_due = [&](size_t i) -> Clock::time_point {
    return start + period(plan.read_rate) * static_cast<int64_t>(i);
  };
  auto append_due = [&](size_t i) -> Clock::time_point {
    // Offset by half a period so appends do not land on read due times.
    return start + period(plan.append_rate) * static_cast<int64_t>(2 * i + 1) /
                       2;
  };
  size_t next_read = 0, next_append = 0;
  size_t reads_done = 0, appends_done = 0;
  std::vector<WireResponse> blocks;
  // Replies still missing this long after the last send or reply are
  // counted failed rather than waited for.
  constexpr auto kStall = std::chrono::seconds(30);
  auto last_progress = Clock::now();
  while (reads_done < num_reads || appends_done < num_appends) {
    auto now = Clock::now();
    while (next_read < num_reads && read_due(next_read) <= now) {
      const size_t i = next_read++;
      Sample& s = result.reads[i];
      const size_t n = plan.reads->size();
      s.due = read_due(i);
      // Blocks of eight reads, alternately traced: the read lists cycle
      // query kind, length and in/out-of-data origin with periods that
      // divide 8 or are odd, so both halves hold every combination.
      // The block parity also flips per pass over the list, so a query
      // met twice is traced once.
      s.traced = plan.trace && ((i / 8 + i / n) % 2 == 1);
      onex::server::RequestAttrs attrs;
      attrs.id = plan.first_id + i + 1;
      attrs.trace = s.traced;
      s.sent = last_progress = Clock::now();
      result.late_ms.push_back(Seconds(s.due, s.sent) * 1e3);
      if (!reader->Send(onex::server::RenderRequestLine((*plan.reads)[i % n],
                                                        attrs))) {
        s.done = s.sent;
        ++reads_done;
      }
    }
    while (next_append < num_appends && append_due(next_append) <= now) {
      const size_t i = next_append++;
      Sample& s = result.appends[i];
      s.due = append_due(i);
      s.sent = last_progress = Clock::now();
      result.late_ms.push_back(Seconds(s.due, s.sent) * 1e3);
      if (!writer->Send(onex::server::RenderAppendLine(
              onex::server::AppendRequest{(*plan.appends)[i], 0}))) {
        s.done = s.sent;
        ++appends_done;
      }
    }
    Clock::time_point next = now + std::chrono::milliseconds(50);
    if (next_read < num_reads) next = std::min(next, read_due(next_read));
    if (next_append < num_appends) {
      next = std::min(next, append_due(next_append));
    }
    // Sleep until the next send is due or either session has input.
    const bool writing = writer != nullptr && num_appends > 0;
    pollfd fds[2] = {{reader->fd(), POLLIN, 0},
                     {writing ? writer->fd() : -1, POLLIN, 0}};
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::max(Clock::duration::zero(), next - Clock::now()))
                        .count();
    const timespec ts{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
    ::ppoll(fds, 2, &ts, nullptr);
    blocks.clear();
    bool ok = reader->Poll(Clock::duration::zero(), &blocks);
    const auto read_stamp = Clock::now();
    for (WireResponse& reply : blocks) {
      const uint64_t id = reply.id() - plan.first_id;
      if (reply.id() <= plan.first_id || id > next_read) continue;
      Sample& s = result.reads[id - 1];
      s.done = read_stamp;
      s.ok = reply.ok && !reply.partial();
      s.reply = std::move(reply);
      ++reads_done;
      last_progress = read_stamp;
      if (s.traced) {
        const uint64_t root = tracer->Add("bench.read", s.due, s.done, 0, id);
        tracer->Add("server.submit_wait", s.sent, s.done, root, id);
      }
    }
    if (writing) {
      blocks.clear();
      ok = writer->Poll(Clock::duration::zero(), &blocks) && ok;
      const auto append_stamp = Clock::now();
      for (WireResponse& reply : blocks) {
        // Untagged replies arrive in send order.
        Sample& s = result.appends[appends_done++];
        s.done = append_stamp;
        s.ok = reply.ok;
        s.reply = std::move(reply);
        last_progress = append_stamp;
        if (s.ok && plan.after_append) plan.after_append();
      }
    }
    if (!ok || Clock::now() - last_progress > kStall) break;
  }
  return result;
}

std::vector<double> LatenciesMs(const std::vector<Sample>& samples,
                                std::optional<bool> traced) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (traced && s.traced != *traced) continue;
    out.push_back(s.ok ? Seconds(s.due, s.done) * 1e3
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> BestLatenciesMs(const std::vector<Sample>& samples,
                                    size_t distinct) {
  const std::vector<double> all = LatenciesMs(samples);
  std::vector<double> best(std::min(distinct, all.size()),
                           std::numeric_limits<double>::max());
  std::vector<bool> failed(best.size(), false);
  for (size_t i = 0; i < all.size(); ++i) {
    const size_t read = i % distinct;
    best[read] = std::min(best[read], all[i]);
    failed[read] = failed[read] || !samples[i].ok;
  }
  for (size_t read = 0; read < best.size(); ++read) {
    if (failed[read]) best[read] = std::numeric_limits<double>::infinity();
  }
  return best;
}

}  // namespace perfbench
