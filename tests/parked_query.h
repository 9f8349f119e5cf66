// A query held in flight on purpose: it runs on its own thread and its
// progress sink parks at the first event until Finish(). Tests use it to
// check what an engine does while a query is in flight (the wire
// equivalent is a `progress=1` client that stops reading). Every wait is
// bounded, so an engine that blocks behind the parked query fails the
// test instead of hanging it.

#ifndef ONEX_TESTS_PARKED_QUERY_H_
#define ONEX_TESTS_PARKED_QUERY_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "api/engine.h"

namespace onex {

class ParkedQuery {
 public:
  ParkedQuery(const Engine& engine, QueryRequest request) {
    thread_ = std::thread([this, &engine, request = std::move(request)] {
      ExecContext ctx;
      ctx.progress = [this](const ProgressEvent&) {
        std::unique_lock<std::mutex> lock(mutex_);
        if (parked_) return;  // Park at the first event only.
        parked_ = true;
        changed_.notify_all();
        changed_.wait_for(lock, std::chrono::seconds(60),
                          [this] { return released_; });
      };
      auto response = engine.Execute(request, ctx);
      std::lock_guard<std::mutex> lock(mutex_);
      response_.emplace(std::move(response));
    });
  }

  ParkedQuery(const ParkedQuery&) = delete;
  ParkedQuery& operator=(const ParkedQuery&) = delete;

  ~ParkedQuery() {
    if (thread_.joinable()) Finish();
  }

  /// True once the query sits in its progress sink (waits up to 10 s).
  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, std::chrono::seconds(10),
                             [this] { return parked_; });
  }

  /// Releases the query and returns its answer.
  Result<QueryResponse> Finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    changed_.notify_all();
    thread_.join();
    return std::move(*response_);
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool parked_ = false;
  bool released_ = false;
  std::optional<Result<QueryResponse>> response_;
  std::thread thread_;
};

}  // namespace onex

#endif  // ONEX_TESTS_PARKED_QUERY_H_
