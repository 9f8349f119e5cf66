// Copyright 2026 The ONEX Reproduction Authors.
// Tracing core implementation. See trace.h for the cost/concurrency
// contract. The only lock here is the registry mutex, ranked kLeaf so
// a thread's first span may fire while any other lock in the system is
// held (spans wrap engine scans, WAL appends, checkpoint bodies).

#include "util/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "util/mutex.h"
#include "util/sigsafe.h"
#include "util/thread_annotations.h"

namespace onex {
namespace trace {

namespace {

std::atomic<bool> g_enabled{false};

/// Steady-clock ns since the first call (process-lifetime epoch keeps
/// exported timestamps small and chrome://tracing happy).
uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

struct Ring {
  std::array<SpanEvent, kRingCapacity> slots;
  /// Total events ever pushed; the live slot is head % kRingCapacity.
  /// Release on store / acquire on load publishes completed slots to a
  /// quiescent exporter.
  std::atomic<uint64_t> head{0};
  uint32_t tid = 0;
  /// Lock-free intrusive list for the crash handler: the registry mutex
  /// cannot be taken from a signal context, so rings are ALSO threaded
  /// onto an atomic singly-linked list at registration time.
  Ring* next = nullptr;
};

std::atomic<Ring*> g_ring_list_head{nullptr};

void PushRingList(Ring* ring) {
  Ring* head = g_ring_list_head.load(std::memory_order_relaxed);
  do {
    ring->next = head;
  } while (!g_ring_list_head.compare_exchange_weak(
      head, ring, std::memory_order_release, std::memory_order_relaxed));
}

/// Registry of every ring ever created. Rings are never
/// destroyed (threads exit; their events must not), so raw pointers
/// handed to thread-locals stay valid for the process lifetime.
struct Registry {
  Mutex mutex{LockRank::kLeaf, "trace.registry"};
  std::vector<std::unique_ptr<Ring>> rings GUARDED_BY(mutex);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // Leaked: outlives threads.
  return *registry;
}

struct ThreadState {
  Ring* ring = nullptr;
  uint32_t depth = 0;
};

ThreadState& LocalState() {
  thread_local ThreadState state;
  if (state.ring == nullptr) {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mutex);
    auto ring = std::make_unique<Ring>();
    ring->tid = static_cast<uint32_t>(registry.rings.size() + 1);
    state.ring = ring.get();
    PushRingList(ring.get());
    registry.rings.push_back(std::move(ring));
  }
  return state;
}

void Push(Ring* ring, const SpanEvent& event) {
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  ring->slots[head % kRingCapacity] = event;
  ring->head.store(head + 1, std::memory_order_release);
}

/// JSON string escaping for span names. Names are literals in
/// practice, but the exporter must emit valid JSON regardless.
void AppendJsonString(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

void SetEnabled(bool enabled) {
  if (enabled) NowNs();  // Pin the epoch before the first span.
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name)
    : name_(name), start_ns_(0), active_(Enabled()) {
  if (!active_) return;
  start_ns_ = NowNs();
  ++LocalState().depth;
}

Span::~Span() {
  if (!active_) return;
  ThreadState& state = LocalState();
  --state.depth;
  SpanEvent event;
  event.name = name_;
  event.start_ns = start_ns_;
  event.duration_ns = NowNs() - start_ns_;
  event.tid = state.ring->tid;
  event.depth = state.depth;
  Push(state.ring, event);
}

TraceStats GetStats() {
  TraceStats stats;
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  stats.threads = registry.rings.size();
  for (const auto& ring : registry.rings) {
    const uint64_t pushed = ring->head.load(std::memory_order_acquire);
    stats.pushed += pushed;
    stats.recorded += std::min(pushed, kRingCapacity);
  }
  stats.dropped = stats.pushed - stats.recorded;
  return stats;
}

uint64_t WriteChromeTrace(std::ostream& out) {
  std::vector<SpanEvent> events;
  {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mutex);
    for (const auto& ring : registry.rings) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t count = std::min(head, kRingCapacity);
      for (uint64_t i = head - count; i < head; ++i) {
        events.push_back(ring->slots[i % kRingCapacity]);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });

  std::string json;
  json.reserve(events.size() * 96 + 256);
  json += "{\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const SpanEvent& event : events) {
    if (!first) json += ',';
    first = false;
    json += "{\"name\":";
    AppendJsonString(&json, event.name != nullptr ? event.name : "?");
    // Chrome trace ts/dur are microseconds; fractional keeps ns detail.
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"cat\":\"onex\",\"pid\":1,\"tid\":%" PRIu32
                  ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%" PRIu32
                  "}}",
                  event.tid, static_cast<double>(event.start_ns) / 1000.0,
                  static_cast<double>(event.duration_ns) / 1000.0,
                  event.depth);
    json += buf;
  }
  json += "]}";
  out << json;
  return events.size();
}

bool WriteChromeTraceFile(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  WriteChromeTrace(out);
  out.flush();
  return static_cast<bool>(out);
}

void Reset() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  for (auto& ring : registry.rings) {
    ring->head.store(0, std::memory_order_release);
  }
}

void DumpRingTailsSigSafe(int fd, uint64_t max_per_ring) {
  using sigsafe::WriteStr;
  using sigsafe::WriteU64;
  WriteStr(fd, "[");
  bool first_ring = true;
  // Walk the lock-free list only — rings are never freed, so every
  // pointer on it is valid even while the process is dying.
  for (Ring* ring = g_ring_list_head.load(std::memory_order_acquire);
       ring != nullptr; ring = ring->next) {
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    uint64_t count = head < kRingCapacity ? head : kRingCapacity;
    if (count > max_per_ring) count = max_per_ring;
    if (count == 0) continue;
    if (!first_ring) WriteStr(fd, ",");
    first_ring = false;
    WriteStr(fd, "{\"tid\":");
    WriteU64(fd, ring->tid);
    WriteStr(fd, ",\"spans\":[");
    bool first_span = true;
    for (uint64_t i = head - count; i < head; ++i) {
      // Plain reads of slot data: the owning thread may be mid-write on
      // the newest slot; name pointers are string literals so even a
      // torn slot dereferences safely (worst case the wrong literal).
      const SpanEvent& event = ring->slots[i % kRingCapacity];
      if (event.name == nullptr) continue;
      if (!first_span) WriteStr(fd, ",");
      first_span = false;
      WriteStr(fd, "{\"name\":\"");
      sigsafe::WriteJsonEscaped(fd, event.name,
                                sigsafe::StrLen(event.name));
      WriteStr(fd, "\",\"start_ns\":");
      WriteU64(fd, event.start_ns);
      WriteStr(fd, ",\"dur_ns\":");
      WriteU64(fd, event.duration_ns);
      WriteStr(fd, ",\"depth\":");
      WriteU64(fd, event.depth);
      WriteStr(fd, "}");
    }
    WriteStr(fd, "]}");
  }
  WriteStr(fd, "]");
}

}  // namespace trace
}  // namespace onex
