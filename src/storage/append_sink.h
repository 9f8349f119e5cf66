// Copyright 2026 The ONEX Reproduction Authors.
// The hook that gives onex::Engine its optional durable mode without an
// api -> storage header dependency: Engine holds an AppendSink pointer
// and, when one is attached, logs every append through it BEFORE
// publishing the version that holds it (write-ahead ordering). storage.h's
// DurableEngine implements the sink over a WAL; tests can implement it
// over a vector. This header depends on nothing above util/, so
// api/engine.h can forward-declare and api/engine.cc can include it
// while storage/ keeps depending on api/ (no cycle).

#ifndef ONEX_STORAGE_APPEND_SINK_H_
#define ONEX_STORAGE_APPEND_SINK_H_

#include <span>

#include "dataset/time_series.h"
#include "util/status.h"

namespace onex {
namespace storage {

/// Durability hook for Engine::AppendSeries / AppendBatch. Calls arrive
/// one at a time, in publish order (the engine serializes its appends
/// with its append mutex held); an implementation whose log state is
/// also touched elsewhere (a checkpoint's rotation) guards it with a
/// mutex of its own ranked above kEngineAppend.
class AppendSink {
 public:
  virtual ~AppendSink() = default;

  /// Makes a batch of appends durable with (at most) one sync; a single
  /// append is a batch of one. All-or-nothing: a non-OK return aborts
  /// the append, none of the batch is applied in memory and the caller
  /// sees the error.
  virtual Status LogAppend(std::span<const TimeSeries> batch) = 0;
};

}  // namespace storage
}  // namespace onex

#endif  // ONEX_STORAGE_APPEND_SINK_H_
