// Interactive-control cost model: what does the ExecContext charge an
// uncancelled query, and how fast does a cancel actually stop one?
// Three measurements over a deliberately heavy exact-distance range
// query (every window of every length, per-member DTW):
//
//   A. Context-check overhead — the same query with an inert default
//      context vs with an armed-but-never-firing one (far deadline +
//      live token). The acceptance bar is <2% on per-window DTW
//      work.
//   B. Cancel-to-abort latency — a second thread fires the CancelToken
//      mid-query; measured from Cancel() to Execute() returning. The
//      bar is <50 ms (it is typically well under one, bounded by
//      check_every DTW invocations).
//   C. Deadline overshoot — how far past DEADLINE_MS the query actually
//      returns.
//
// Results go to stdout and BENCH_cancel.json (CI uploads it).
//
// Run: ./build/bench/query_cancellation [--stocks N] [--days N]
//          [--repeats N] [--st X]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

namespace onex {
namespace bench {
namespace {

void Die(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t stocks = static_cast<size_t>(flags.GetInt("stocks", 40));
  const size_t days = static_cast<size_t>(flags.GetInt("days", 128));
  const size_t repeats = static_cast<size_t>(flags.GetInt("repeats", 5));
  const double st = flags.GetDouble("st", 0.3);

  GenOptions gen;
  gen.num_series = stocks;
  gen.length = days;
  gen.seed = 7;
  Dataset market = MakeRandomWalk(gen);
  MinMaxNormalize(&market);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {10, 0, 10};
  auto built = Engine::Build(std::move(market), options);
  if (!built.ok()) Die(built.status());
  const Engine engine = std::move(built).value();

  std::vector<double> sketch(30);
  for (size_t i = 0; i < sketch.size(); ++i) {
    sketch[i] = 0.2 + 0.6 * static_cast<double>(i) / (sketch.size() - 1);
  }
  const RangeWithinRequest query{sketch, st, /*length=*/0,
                                 /*exact_distances=*/true};

  // ---- A: uncancelled overhead. Min-of-N on both sides so scheduler
  // noise doesn't masquerade as context cost.
  double plain_s = 1e30;
  double armed_s = 1e30;
  for (size_t r = 0; r < repeats; ++r) {
    Timer timer;
    auto response = engine.Execute(query, ExecContext{});
    if (!response.ok()) Die(response.status());
    plain_s = std::min(plain_s, timer.ElapsedSeconds());
  }
  for (size_t r = 0; r < repeats; ++r) {
    ExecContext ctx;  // Armed: live token, far deadline, checks run.
    ctx.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(1);
    Timer timer;
    auto response = engine.Execute(query, ctx);
    if (!response.ok()) Die(response.status());
    if (response.value().partial) Die(Status::Corruption("spurious abort"));
    armed_s = std::min(armed_s, timer.ElapsedSeconds());
  }
  const double overhead_pct = (armed_s - plain_s) / plain_s * 100.0;

  // ---- B: cancel-to-abort latency, measured from the moment Cancel()
  // is called on another thread to Execute() returning.
  std::vector<double> abort_ms;
  for (size_t r = 0; r < repeats; ++r) {
    ExecContext ctx;
    CancelToken token = ctx.cancel;
    std::atomic<bool> started{false};
    double measured = 0.0;
    std::thread canceller([&] {
      while (!started.load()) std::this_thread::yield();
      // Let the query get properly into its inner loops first.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(plain_s * 0.3));
      token.Cancel();
    });
    Timer total;
    started.store(true);
    auto response = engine.Execute(query, ctx);
    const double total_s = total.ElapsedSeconds();
    canceller.join();
    if (!response.ok()) Die(response.status());
    if (!response.value().partial) {
      // Query finished before the cancel landed (tiny base); skip.
      continue;
    }
    measured = std::max(0.0, total_s - plain_s * 0.3) * 1e3;
    abort_ms.push_back(measured);
  }
  double abort_mean = 0.0;
  double abort_max = 0.0;
  for (const double ms : abort_ms) {
    abort_mean += ms;
    abort_max = std::max(abort_max, ms);
  }
  if (!abort_ms.empty()) {
    abort_mean /= static_cast<double>(abort_ms.size());
  }

  // ---- C: deadline overshoot at a budget well under the full query.
  const double budget_ms = std::max(5.0, plain_s * 1e3 * 0.25);
  std::vector<double> overshoot_ms;
  for (size_t r = 0; r < repeats; ++r) {
    ExecContext ctx;
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(
                       static_cast<int64_t>(budget_ms * 1e3));
    Timer timer;
    auto response = engine.Execute(query, ctx);
    const double elapsed_ms = timer.ElapsedMillis();
    if (!response.ok()) Die(response.status());
    if (!response.value().partial) continue;  // Finished under budget.
    overshoot_ms.push_back(std::max(0.0, elapsed_ms - budget_ms));
  }
  double overshoot_max = 0.0;
  for (const double ms : overshoot_ms) {
    overshoot_max = std::max(overshoot_max, ms);
  }

  TableWriter table("Interactive query control costs");
  table.SetHeader({"metric", "value"});
  table.AddRow({"full query (inert context)",
                TableWriter::Num(plain_s * 1e3, 2) + " ms"});
  table.AddRow({"full query (armed context)",
                TableWriter::Num(armed_s * 1e3, 2) + " ms"});
  table.AddRow({"context-check overhead",
                TableWriter::Num(overhead_pct, 2) + " %"});
  table.AddRow({"cancel-to-abort mean",
                TableWriter::Num(abort_mean, 2) + " ms"});
  table.AddRow({"cancel-to-abort max",
                TableWriter::Num(abort_max, 2) + " ms"});
  table.AddRow({"deadline overshoot max",
                TableWriter::Num(overshoot_max, 2) + " ms"});
  table.Print();

  std::FILE* json = std::fopen("BENCH_cancel.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\"bench\":\"query_cancellation\",\"stocks\":%zu,"
                 "\"days\":%zu,\"repeats\":%zu,"
                 "\"full_query_ms\":%.3f,\"armed_query_ms\":%.3f,"
                 "\"ctx_overhead_pct\":%.3f,"
                 "\"cancel_to_abort_mean_ms\":%.3f,"
                 "\"cancel_to_abort_max_ms\":%.3f,"
                 "\"deadline_overshoot_max_ms\":%.3f,"
                 "\"abort_samples\":%zu}\n",
                 stocks, days, repeats, plain_s * 1e3, armed_s * 1e3,
                 overhead_pct, abort_mean, abort_max, overshoot_max,
                 abort_ms.size());
    std::fclose(json);
    std::printf("wrote BENCH_cancel.json\n");
  }

  // The acceptance bars, enforced so CI notices a regression.
  if (abort_max >= 50.0) {
    std::fprintf(stderr, "FAIL: cancel-to-abort %.2f ms >= 50 ms\n",
                 abort_max);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace onex

int main(int argc, char** argv) { return onex::bench::Run(argc, argv); }
