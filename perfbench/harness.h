// Shared pieces of the perfbench program: command-line arguments, the
// result report, the benchmark's own span recorder, percentile and
// trace-line helpers, and the open-loop load generator.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "server/protocol.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for data files and the span dump; inside the checkout.
  std::string work_dir;
};

/// What one run prints: the operation tally, the answer verdict, and the
/// metrics of the selected set (end-to-end, or per-layer when traced).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// One operation; `ok` false counts it failed. `what` is logged for
  /// the first few failures.
  void Op(bool ok, const std::string& what = "");
  /// A wrong answer: failed operation and `correct` false.
  void Wrong(const std::string& what);
  /// The one-line JSON result object.
  std::string Json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Value>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory spans around the benchmark's calls into each layer. Disabled
/// (every call a no-op) in untraced runs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Add(const std::string& name, Clock::time_point start,
               Clock::time_point end, uint64_t parent, uint64_t request);
  /// Starts an open span; End() closes it.
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  /// Writes every span as one JSON line each, followed by the per-name
  /// self time (span minus the part its children cover).
  void Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    uint64_t parent = 0;
    uint64_t request = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII wrapper over Tracer::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, MB.
double PeakRssMb();
/// Current resident set size of this process, MB.
double RssMb();
/// Total bytes of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

/// The `trace stage` and `trace cascade` lines of one reply. A routed
/// reply carries one pair per leg; stage times keep the slowest leg and
/// cascade counts are summed.
struct TraceInfo {
  bool present = false;
  double queue_wait_ms = 0, rep_scan_ms = 0, member_scan_ms = 0,
         knn_ms = 0, refine_ms = 0, exec_ms = 0;
  uint64_t seen = 0, kim_pruned = 0, keogh_pruned = 0, dtw_evaluated = 0,
           early_abandoned = 0;
};
TraceInfo ParseTrace(const onex::server::WireResponse& reply);

/// The reply with its `trace ...` lines and the header's wall-clock
/// `latency_us` removed: what two answers to the same question share.
std::string AnswerText(const onex::server::WireResponse& reply);
/// The same for an in-process answer rendered as the server would.
std::string AnswerText(const onex::QueryResponse& response, uint64_t id);

/// Value of an unlabelled sample in a Prometheus exposition; 0 if absent.
double ScrapeValue(const std::string& exposition, const std::string& name);

// ------------------------------------------------------------ open loop

/// One session of the wire protocol, driven from a single thread: sends
/// never wait for replies, and each reply block is stamped the moment
/// it is read. (server::Client hands a tagged reply only to a blocking
/// Handle::Wait, so a generator held to two threads could not send on
/// schedule and stamp replies as they land; the load therefore speaks
/// the wire through server/protocol's render and parse functions.)
class WireSession {
 public:
  WireSession() = default;
  ~WireSession();
  WireSession(const WireSession&) = delete;
  WireSession& operator=(const WireSession&) = delete;

  /// Connects, reads the greeting, and binds the session with `use`.
  bool Open(uint16_t port, const std::string& target);
  bool Send(const std::string& line);
  /// Waits up to `timeout` for input and appends every reply block that
  /// completed to `blocks`. False when the connection failed.
  bool Poll(Clock::duration timeout, std::vector<onex::server::WireResponse>* blocks);
  /// Send + wait for the next reply block.
  std::optional<onex::server::WireResponse> Roundtrip(const std::string& line);
  int fd() const { return fd_; }

 private:
  bool Drain(std::vector<onex::server::WireResponse>* blocks);
  void QuickAck();
  int fd_ = -1;
  std::string buffer_;
  std::vector<std::string> block_;
};

/// One timed operation of the open-loop generator.
struct Sample {
  Clock::time_point due, sent, done;
  bool ok = false;
  bool traced = false;
  onex::server::WireResponse reply;
};

struct LoadPlan {
  /// Reads are cycled in order; each is sent tagged on the read session.
  /// Rate 0 = appends only.
  const std::vector<onex::QueryRequest>* reads = nullptr;
  double read_rate = 0;
  /// Appends sent untagged on the write session at `append_rate`; empty
  /// = reads only.
  const std::vector<std::vector<double>>* appends = nullptr;
  double append_rate = 0;
  double seconds = 0;
  /// Sends trace=1 on every other block of eight reads so one run holds
  /// traced and untraced reads of every kind.
  bool trace = false;
  /// Ids of this load's reads start after this many earlier ones.
  uint64_t first_id = 0;
  /// Called after each acknowledged append (samples storage counters).
  std::function<void()> after_append;
};

struct LoadResult {
  std::vector<Sample> reads;
  std::vector<Sample> appends;
  /// How late each send left against its due time, ms.
  std::vector<double> late_ms;
};

/// Runs the open-loop schedule on the calling thread alone. Every
/// request is timed from its due time to the moment its reply is read.
LoadResult RunOpenLoop(const LoadPlan& plan, WireSession* reader,
                       WireSession* writer, Tracer* tracer);

/// Latency of each sample from its due time, ms. A failed sample counts
/// as infinitely slow, so it misses every latency limit.
/// With `traced` set, only samples whose trace flag equals it count.
std::vector<double> LatenciesMs(const std::vector<Sample>& samples,
                                std::optional<bool> traced = std::nullopt);

/// The load sends `distinct` reads over and over; sample i is read
/// i % distinct. Returns each read's best latency over its samples, ms,
/// infinite if any of them failed.
std::vector<double> BestLatenciesMs(const std::vector<Sample>& samples,
                                    size_t distinct);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
