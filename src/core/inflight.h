// Copyright 2026 The ONEX Reproduction Authors.
// Mid-flight query visibility: a fixed-capacity global registry of
// InflightProbe slots, one per executing query. The worker claims a
// slot before Engine::Execute and points ExecContext::probe at it; the
// query's inner loops then publish their CURRENT stage and a mirror of
// the cascade counters through relaxed atomics, amortized on the same
// every-`check_every` slow path ExecChecker already pays for — so a
// reader (the INSPECT verb, the stall watchdog, the crash-time flight
// recorder) can see where a query is stuck WHILE it runs, without a
// lock anywhere near the hot path.
//
// Consistency model: each field is individually atomic but the row is
// not a snapshot — INSPECT may observe stage=knn with counters from a
// moment earlier. That is the deliberate trade: torn-but-true-ish rows
// for zero synchronization with the query thread (the seqlock
// alternative costs two fenced stores per publish and buys nothing an
// operator can act on). The `epoch` counter (bumped on claim AND
// release) lets careful readers detect slot reuse mid-read.
//
// The registry is intentionally a process-global singleton with
// statically-allocated slots: the crash recorder must walk it from a
// signal handler, where following heap pointers owned by a dying
// server object is how crash handlers crash.

#ifndef ONEX_CORE_INFLIGHT_H_
#define ONEX_CORE_INFLIGHT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace onex {

/// Where a query currently is. Published by the StageScope that also
/// times the stage (core/query_processor.h), so the live value and the
/// post-hoc breakdown can never disagree about what the stages ARE.
enum class QueryStage : uint32_t {
  kQueued = 0,      ///< Admitted, waiting for a worker.
  kRepScan = 1,     ///< Scanning group representatives (LB cascade).
  kMemberScan = 2,  ///< Scanning inside chosen groups.
  kKnn = 3,         ///< k-NN refinement loop.
  kRefine = 4,      ///< Threshold-refinement re-query loop.
};

const char* ToString(QueryStage stage);

/// One live query's mirror. All fields relaxed atomics: single writer
/// (the query thread; the watchdog writes only `stalled`), any number
/// of lock-free readers. POD-over-atomics on purpose — a signal
/// handler reads this memory directly.
struct InflightProbe {
  static constexpr size_t kDatasetCap = 48;

  std::atomic<uint64_t> epoch{0};     ///< Odd while active (seqlock-lite).
  std::atomic<uint64_t> id{0};        ///< Wire request id; 0 = untagged.
  std::atomic<uint64_t> session{0};   ///< Owning session fd.
  std::atomic<uint32_t> kind{0};      ///< QueryKind as int.
  std::atomic<uint32_t> stage{0};     ///< QueryStage as int.
  std::atomic<uint64_t> start_ns{0};  ///< steady_clock claim time.
  std::atomic<int64_t> deadline_ns{-1};  ///< Absolute steady ns; -1 none.
  std::atomic<uint32_t> stalled{0};   ///< Set by the watchdog, once.
  /// Cascade mirror (same invariant as CascadeStats, eventually).
  std::atomic<uint64_t> candidates{0};
  std::atomic<uint64_t> pruned_kim{0};
  std::atomic<uint64_t> pruned_keogh{0};
  std::atomic<uint64_t> dtw_abandoned{0};
  std::atomic<uint64_t> dtw_completed{0};
  /// Dataset name, length-published AFTER the bytes (release store).
  char dataset[kDatasetCap] = {};
  std::atomic<uint32_t> dataset_len{0};
  /// Which server claimed the slot (INSPECT filters to its own server;
  /// the crash dump prints everything).
  std::atomic<const void*> owner{nullptr};

  void PublishStage(QueryStage s) {
    stage.store(static_cast<uint32_t>(s), std::memory_order_relaxed);
  }
  QueryStage CurrentStage() const {
    return static_cast<QueryStage>(stage.load(std::memory_order_relaxed));
  }
};

/// A decoded, plain-struct copy of one live row (what INSPECT renders
/// and the watchdog logs).
struct InflightRow {
  uint64_t epoch = 0;
  uint64_t id = 0;
  uint64_t session = 0;
  uint32_t kind = 0;
  QueryStage stage = QueryStage::kQueued;
  uint64_t start_ns = 0;
  int64_t deadline_ns = -1;
  bool stalled = false;
  uint64_t candidates = 0;
  uint64_t pruned_kim = 0;
  uint64_t pruned_keogh = 0;
  uint64_t dtw_abandoned = 0;
  uint64_t dtw_completed = 0;
  std::string dataset;
};

/// Decodes one probe into a plain row (relaxed reads; the row is not an
/// atomic snapshot — see the consistency note above). The stall
/// watchdog uses this to log a flagged job's INSPECT row without a full
/// registry sweep.
InflightRow DecodeProbe(const InflightProbe& probe);

/// Fixed-capacity slot table. Claim scans for a free slot with CAS on
/// the epoch parity; on exhaustion (more concurrent queries than
/// kCapacity — not reachable through the bounded server queue) Claim
/// returns nullptr and the query simply runs unobserved.
class InflightRegistry {
 public:
  static constexpr size_t kCapacity = 128;

  static InflightRegistry& Global();

  /// Claims a slot and initializes identity fields. `deadline_ns` < 0
  /// means no deadline; `start_ns` is steady_clock now in ns.
  InflightProbe* Claim(const void* owner, uint64_t id, uint64_t session,
                       uint32_t kind, const std::string& dataset,
                       uint64_t start_ns, int64_t deadline_ns);

  /// Releases a slot claimed by Claim (bumps epoch to even = free).
  void Release(InflightProbe* probe);

  /// Decodes every active row, optionally filtered to one owner.
  std::vector<InflightRow> Snapshot(const void* owner) const;

  /// Async-signal-safe: emits the active rows as a JSON array onto fd.
  /// Reads the same atomics Snapshot does, via raw loads only.
  void DumpSigSafe(int fd) const;

  /// Active-slot count (cheap gauge for INSPECT's header line).
  size_t ActiveCount(const void* owner) const;

 private:
  InflightProbe slots_[kCapacity];
  std::atomic<uint64_t> next_hint_{0};
};

/// RAII claim for the worker loop: claims on construction (may hold
/// nullptr), releases on destruction. Move-only.
class InflightClaim {
 public:
  InflightClaim() = default;
  InflightClaim(const void* owner, uint64_t id, uint64_t session,
                uint32_t kind, const std::string& dataset, uint64_t start_ns,
                int64_t deadline_ns)
      : probe_(InflightRegistry::Global().Claim(owner, id, session, kind,
                                               dataset, start_ns,
                                               deadline_ns)) {}
  InflightClaim(InflightClaim&& other) noexcept : probe_(other.probe_) {
    other.probe_ = nullptr;
  }
  InflightClaim& operator=(InflightClaim&& other) noexcept {
    if (this != &other) {
      Reset();
      probe_ = other.probe_;
      other.probe_ = nullptr;
    }
    return *this;
  }
  InflightClaim(const InflightClaim&) = delete;
  InflightClaim& operator=(const InflightClaim&) = delete;
  ~InflightClaim() { Reset(); }

  InflightProbe* probe() const { return probe_; }

 private:
  void Reset() {
    if (probe_ != nullptr) InflightRegistry::Global().Release(probe_);
    probe_ = nullptr;
  }
  InflightProbe* probe_ = nullptr;
};

}  // namespace onex

#endif  // ONEX_CORE_INFLIGHT_H_
