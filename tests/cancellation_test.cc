// Cancellation / deadline semantics across the stack: engine-level
// (ExecContext interrupting a RangeWithin mid-flight, cancel racing a
// concurrent AppendSeries — run under TSan in CI), protocol-level (v3
// attribute grammar, PART frames, tagged errors), and wire-level
// (async Submit/Cancel handles, CANCEL of a completed id as a
// structured no-op ERR, a v2-style session against the v3 server).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "core/exec_context.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace onex {
namespace {

// Protocol symbols (RequestAttrs, ParseRequestLine, ...) live in
// onex::server; pull them in for the grammar tests below.
using server::ControlRequest;
using server::ControlVerb;
using server::ParseRequestLine;
using server::ParseResponseBlock;
using server::RenderCancelLine;
using server::RenderError;
using server::RenderPartBlock;
using server::RenderRequestLine;
using server::RenderResponse;
using server::RequestAttrs;

/// A base big enough that an exact range query has real work to do.
Engine BuildMarketEngine(size_t stocks = 30, size_t days = 96) {
  GenOptions gen;
  gen.num_series = stocks;
  gen.length = days;
  gen.seed = 11;
  Dataset market = MakeRandomWalk(gen);
  MinMaxNormalize(&market);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 0, 8};
  auto built = Engine::Build(std::move(market), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

std::vector<double> RampSketch(size_t n = 24) {
  std::vector<double> sketch(n);
  for (size_t i = 0; i < n; ++i) {
    sketch[i] = 0.2 + 0.6 * static_cast<double>(i) / (n - 1);
  }
  return sketch;
}

RangeWithinRequest BroadRange() {
  return RangeWithinRequest{RampSketch(), 0.3, /*length=*/0,
                           /*exact_distances=*/true};
}

// ------------------------------------------------- engine-level tests

TEST(ExecContextTest, ExpiredDeadlineReturnsPartialRangeResults) {
  const Engine engine = BuildMarketEngine();

  auto full = engine.Execute(BroadRange(), ExecContext{});
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full.value().partial);
  ASSERT_GT(full.value().matches().size(), 0u);

  ExecContext ctx;
  ctx.deadline = std::chrono::steady_clock::now();  // Already passed.
  ctx.check_every = 4;
  auto partial = engine.Execute(BroadRange(), ctx);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial.value().partial);
  EXPECT_EQ(partial.value().interrupt, Status::Code::kDeadlineExceeded);
  // The scan stopped almost immediately, so the partial set is a strict
  // subset of the full answer.
  EXPECT_LT(partial.value().matches().size(), full.value().matches().size());
}

TEST(ExecContextTest, PreCancelledTokenReturnsPartialImmediately) {
  const Engine engine = BuildMarketEngine();
  ExecContext ctx;
  ctx.cancel.Cancel();
  ctx.check_every = 4;
  auto response = engine.Execute(BroadRange(), ctx);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().partial);
  EXPECT_EQ(response.value().interrupt, Status::Code::kCancelled);
}

TEST(ExecContextTest, ArmedContextMatchesInertContextAnswer) {
  // An armed-but-never-firing context (deadline far away, live token)
  // must return the same answer as the inert default context.
  const Engine engine = BuildMarketEngine(12, 48);
  auto plain = engine.Execute(BroadRange(), ExecContext{});
  auto armed = engine.Execute(
      BroadRange(), ExecContext::WithDeadlineAfter(std::chrono::hours(1)));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(armed.ok());
  EXPECT_FALSE(armed.value().partial);
  ASSERT_EQ(armed.value().matches().size(), plain.value().matches().size());
  for (size_t i = 0; i < plain.value().matches().size(); ++i) {
    EXPECT_EQ(armed.value().matches()[i].distance,
              plain.value().matches()[i].distance);
  }
}

TEST(ExecContextTest, ProgressSinkStreamsBatchesThatCoverTheFullAnswer) {
  const Engine engine = BuildMarketEngine(12, 48);
  ExecContext ctx;
  size_t streamed = 0;
  size_t events = 0;
  double last_fraction = 0.0;
  ctx.progress = [&](const ProgressEvent& event) {
    ++events;
    streamed += event.matches().size();
    EXPECT_FALSE(event.snapshot);  // Range queries append.
    EXPECT_GE(event.work_fraction, last_fraction);
    last_fraction = event.work_fraction;
  };
  auto response = engine.Execute(BroadRange(), ctx);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().partial);
  EXPECT_GT(events, 0u);
  // Every confirmed match was streamed exactly once.
  EXPECT_EQ(streamed, response.value().matches().size());
}

TEST(ExecContextTest, MidLengthDeadlineDeliversEveryConfirmedMatch) {
  // One length, so the deadline lands inside that length's group walk
  // (between member batches or groups), not at a length boundary.
  const Engine engine = BuildMarketEngine();
  const RangeWithinRequest request{RampSketch(), 0.3, /*length=*/24,
                                   /*exact_distances=*/true};
  auto full = engine.Execute(request, ExecContext{});
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full.value().partial);

  ExecContext ctx;
  ctx.check_every = 4;
  // Far enough out that a sanitizer build still confirms matches first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  ctx.deadline = deadline;
  std::vector<QueryMatch> streamed;
  size_t events = 0;
  ctx.progress = [&](const ProgressEvent& event) {
    EXPECT_FALSE(event.snapshot);
    streamed.insert(streamed.end(), event.matches().begin(),
                    event.matches().end());
    // Stall past the deadline after the third group with matches (if
    // it has not passed already): the scan's next check stops it
    // partway through the length.
    if (++events == 3) std::this_thread::sleep_until(deadline);
  };
  auto partial = engine.Execute(request, ctx);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_TRUE(partial.value().partial);
  EXPECT_EQ(partial.value().interrupt, Status::Code::kDeadlineExceeded);

  // Groups streamed in group order, and the interrupt flush delivered
  // every confirmed match: the partial answer is exactly what streamed.
  for (size_t i = 1; i < streamed.size(); ++i) {
    EXPECT_LE(streamed[i - 1].group_id, streamed[i].group_id);
  }
  const auto& got = partial.value().matches();
  ASSERT_EQ(got.size(), streamed.size());
  EXPECT_GT(got.size(), 0u);
  EXPECT_LT(got.size(), full.value().matches().size());
  // Each confirmed match carries its full-answer distance.
  for (const QueryMatch& m : got) {
    const auto it = std::find_if(
        full.value().matches().begin(), full.value().matches().end(),
        [&](const QueryMatch& f) { return f.ref == m.ref; });
    ASSERT_NE(it, full.value().matches().end());
    EXPECT_EQ(it->distance, m.distance);
  }
}

TEST(ExecContextTest, BestMatchProgressSendsSnapshots) {
  const Engine engine = BuildMarketEngine(12, 48);
  ExecContext ctx;
  size_t snapshots = 0;
  ctx.progress = [&](const ProgressEvent& event) {
    EXPECT_TRUE(event.snapshot);
    EXPECT_EQ(event.matches().size(), 1u);
    ++snapshots;
  };
  auto response =
      engine.Execute(BestMatchRequest{RampSketch(), /*length=*/0}, ctx);
  ASSERT_TRUE(response.ok());
  EXPECT_GT(snapshots, 0u);
}

TEST(ExecContextTest, RefineThresholdKeepsPerLengthPartials) {
  const Engine engine = BuildMarketEngine(12, 48);
  auto full = engine.Execute(RefineThresholdRequest{0.1, /*length=*/0}, ExecContext{});
  ASSERT_TRUE(full.ok());
  const size_t all_lengths = full.value().refinements().size();
  ASSERT_GT(all_lengths, 1u);

  ExecContext ctx;
  ctx.deadline = std::chrono::steady_clock::now();
  ctx.check_every = 4;
  auto partial = engine.Execute(RefineThresholdRequest{0.1, 0}, ctx);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial.value().partial);
  EXPECT_LT(partial.value().refinements().size(), all_lengths);
}

/// The TSan target: queries being cancelled while appends publish new
/// versions of the base. Queries run on the version they pinned, the
/// appender builds the next one, and the token is fired from a third
/// thread — TSan verifies no unsynchronized access anywhere in the
/// context plumbing.
TEST(ExecContextTest, CancelRacesConcurrentAppendCleanly) {
  Engine engine = BuildMarketEngine(16, 64);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread appender([&] {
    for (int i = 0; i < 8 && !stop.load(); ++i) {
      std::vector<double> values(64);
      for (size_t j = 0; j < values.size(); ++j) {
        values[j] = 0.5 + 0.4 * std::sin(0.1 * (i + 1) * j);
      }
      if (!engine.AppendSeries(TimeSeries(values, i)).ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        ExecContext ctx;
        ctx.check_every = 8;
        CancelToken token = ctx.cancel;
        std::thread canceller([token, t, i] {
          std::this_thread::sleep_for(
              std::chrono::microseconds(200 * (t + i + 1)));
          token.Cancel();
        });
        auto response = engine.Execute(BroadRange(), ctx);
        canceller.join();
        if (!response.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : queriers) thread.join();
  stop.store(true);
  appender.join();
  EXPECT_EQ(failures.load(), 0);
}

// ----------------------------------------------- protocol-level tests

TEST(ProtocolV3Test, AttributePrefixRoundTrips) {
  RequestAttrs attrs;
  attrs.id = 7;
  attrs.deadline_ms = 250;
  attrs.progress = true;
  const QueryRequest request = RangeWithinRequest{{0.1, 0.5, 0.9}, 0.3, 0,
                                                  false};
  const std::string line = RenderRequestLine(request, attrs);
  EXPECT_EQ(line.rfind("id=7 deadline_ms=250 progress=1 ", 0), 0u);

  RequestAttrs reparsed;
  auto parsed = ParseRequestLine(line, &reparsed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(reparsed.id, 7u);
  EXPECT_EQ(reparsed.deadline_ms, 250u);
  EXPECT_TRUE(reparsed.progress);
  EXPECT_EQ(RenderRequestLine(std::get<QueryRequest>(parsed.value())),
            RenderRequestLine(request));
}

TEST(ProtocolV3Test, AttributeValidation) {
  RequestAttrs attrs;
  // progress needs an id.
  EXPECT_FALSE(ParseRequestLine("progress=1 q1 any 0.1,0.2", &attrs).ok());
  // id must be a positive integer.
  EXPECT_FALSE(ParseRequestLine("id=0 q1 any 0.1,0.2", &attrs).ok());
  EXPECT_FALSE(ParseRequestLine("id=x q1 any 0.1,0.2", &attrs).ok());
  // Unknown attribute keys are rejected, not dropped.
  EXPECT_FALSE(ParseRequestLine("timeout=5 q1 any 0.1,0.2", &attrs).ok());
  // Attributes on non-query verbs are rejected.
  EXPECT_FALSE(ParseRequestLine("id=3 ping", &attrs).ok());
  // Attributes without an attrs sink are rejected (never silently
  // dropped: a dropped deadline would be worse than an error).
  EXPECT_FALSE(ParseRequestLine("id=3 q1 any 0.1,0.2").ok());
  // A v2 line parses identically with and without the sink.
  EXPECT_TRUE(ParseRequestLine("q1 any 0.1,0.2").ok());
  auto parsed = ParseRequestLine("q1 any 0.1,0.2", &attrs);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(attrs.any());
}

TEST(ProtocolV3Test, CancelLineParsesAndRenders) {
  RequestAttrs attrs;
  auto parsed = ParseRequestLine(RenderCancelLine(42), &attrs);
  ASSERT_TRUE(parsed.ok());
  const auto* control = std::get_if<ControlRequest>(&parsed.value());
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->verb, ControlVerb::kCancel);
  EXPECT_EQ(control->argument, "42");
  EXPECT_FALSE(ParseRequestLine("cancel", &attrs).ok());
  EXPECT_FALSE(ParseRequestLine("cancel nope", &attrs).ok());
}

TEST(ProtocolV3Test, PartBlockRendersAndParses) {
  std::vector<QueryMatch> matches(2);
  matches[0].ref = {3, 4, 8};
  matches[0].distance = 0.125;
  matches[1].ref = {5, 6, 8};
  matches[1].distance = 0.25;
  const std::string block = RenderPartBlock(
      QueryKind::kRangeWithin, 9, 2, 0.5, false,
      std::span<const QueryMatch>(matches.data(), matches.size()));

  std::vector<std::string> lines;
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  auto parsed = ParseResponseBlock(lines);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().ok);
  EXPECT_TRUE(parsed.value().part);
  EXPECT_EQ(parsed.value().kind, "RangeWithin");
  EXPECT_EQ(parsed.value().id(), 9u);
  EXPECT_EQ(parsed.value().header.at("seq"), "2");
  EXPECT_EQ(parsed.value().header.at("snapshot"), "0");
  EXPECT_EQ(parsed.value().payload.size(), 2u);
}

TEST(ProtocolV3Test, TaggedErrorCarriesIdOutsideTheMessage) {
  const std::string block =
      RenderError(Status::DeadlineExceeded("query deadline exceeded"), 12);
  std::vector<std::string> lines;
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  auto parsed = ParseResponseBlock(lines);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().code, "DEADLINE_EXCEEDED");
  EXPECT_EQ(parsed.value().id(), 12u);
  EXPECT_EQ(parsed.value().message, "query deadline exceeded");
}

TEST(ProtocolV3Test, PartialResponseHeaderFlagsSurvive) {
  QueryResponse response;
  response.kind = QueryKind::kRangeWithin;
  response.partial = true;
  response.interrupt = Status::Code::kCancelled;
  const std::string block = RenderResponse(response, 5);
  std::vector<std::string> lines;
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  auto parsed = ParseResponseBlock(lines);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ok);
  EXPECT_TRUE(parsed.value().partial());
  EXPECT_EQ(parsed.value().id(), 5u);
  EXPECT_EQ(parsed.value().header.at("interrupt"), "CANCELLED");
}

// --------------------------------------------------- wire-level tests

class CancellationServerTest : public ::testing::Test {
 protected:
  void StartServer(server::ServerOptions options) {
    catalog_ = std::make_shared<server::Catalog>(server::CatalogOptions{});
    catalog_->Register("market", BuildMarketEngine(16, 64));
    auto started = server::Server::Start(std::move(options), catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  server::Client Connect() {
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::shared_ptr<server::Catalog> catalog_;
  std::unique_ptr<server::Server> server_;
};

TEST_F(CancellationServerTest, CancelAbortsInFlightQueryWithPartialReply) {
  // The worker blocks at job start until released, so the CANCEL is
  // guaranteed to land while the query is "running".
  std::mutex mutex;
  std::condition_variable cv;
  bool job_started = false;
  bool release = false;
  server::ServerOptions options;
  options.num_workers = 1;
  options.on_job_start = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    job_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StartServer(options);

  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use market").ok());

  auto handle = client.Submit(BroadRange());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return job_started; });
  }
  // Cancel while the worker holds the job.
  EXPECT_TRUE(handle.value().Cancel().ok());
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();

  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  ASSERT_TRUE(final.value().ok) << final.value().message;
  EXPECT_TRUE(final.value().partial());
  EXPECT_EQ(final.value().header.at("interrupt"), "CANCELLED");
  EXPECT_GE(server_->metrics().cancelled(), 1u);
  EXPECT_GE(server_->metrics().partial_results(), 1u);
}

TEST_F(CancellationServerTest, CancelOfCompletedIdIsStructuredNoOpErr) {
  StartServer(server::ServerOptions{});
  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use market").ok());

  auto handle = client.Submit(
      QueryRequest(BestMatchRequest{RampSketch(), /*length=*/0}));
  ASSERT_TRUE(handle.ok());
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok());
  ASSERT_TRUE(final.value().ok);

  // Cancel after completion: the structured no-op ERR, surfaced as
  // NotFound by the handle.
  const Status cancel = handle.value().Cancel();
  EXPECT_EQ(cancel.code(), Status::Code::kNotFound);

  // Raw form: an id this session never used.
  auto raw = client.Roundtrip(server::RenderCancelLine(424242));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_FALSE(raw.value().ok);
  EXPECT_EQ(raw.value().code, "NOT_FOUND");
  EXPECT_EQ(raw.value().id(), 424242u);
}

TEST_F(CancellationServerTest, DeadlineOverWireReturnsPartialFlaggedReply) {
  // Stall the worker past the deadline so the query starts already
  // expired — deterministic partiality without timing games.
  server::ServerOptions options;
  options.num_workers = 1;
  options.on_job_start = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  StartServer(options);
  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use market").ok());

  server::Client::SubmitOptions submit;
  submit.deadline_ms = 5;
  auto handle = client.Submit(BroadRange(), submit);
  ASSERT_TRUE(handle.ok());
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok());
  ASSERT_TRUE(final.value().ok) << final.value().message;
  EXPECT_TRUE(final.value().partial());
  EXPECT_EQ(final.value().header.at("interrupt"), "DEADLINE_EXCEEDED");
  EXPECT_GE(server_->metrics().deadline_exceeded(), 1u);
}

TEST_F(CancellationServerTest, ProgressStreamsPartFramesBeforeFinal) {
  StartServer(server::ServerOptions{});
  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use market").ok());

  std::atomic<size_t> frames{0};
  std::atomic<size_t> streamed{0};
  server::Client::SubmitOptions submit;
  submit.on_progress = [&](const server::WireResponse& frame) {
    frames.fetch_add(1);
    streamed.fetch_add(frame.payload.size());
  };
  auto handle = client.Submit(BroadRange(), submit);
  ASSERT_TRUE(handle.ok());
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok());
  ASSERT_TRUE(final.value().ok);
  EXPECT_FALSE(final.value().partial());
  EXPECT_GT(frames.load(), 0u);
  EXPECT_GT(streamed.load(), 0u);
  // Streamed hits never exceed the final answer.
  EXPECT_LE(streamed.load(), std::stoull(final.value().header.at("matches")));
}

TEST_F(CancellationServerTest, TaggedQueriesMultiplexOutOfOrder) {
  // One worker: A blocks in execution, B queues behind it. Cancelling A
  // lets both finish; replies arrive tagged and the handles sort it out
  // regardless of order.
  std::mutex mutex;
  std::condition_variable cv;
  bool job_started = false;
  bool release = false;
  bool first_job = true;
  server::ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 4;
  options.on_job_start = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!first_job) return;  // Only the first job blocks.
    first_job = false;
    job_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StartServer(options);
  server::Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use market").ok());

  auto slow = client.Submit(BroadRange());
  ASSERT_TRUE(slow.ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return job_started; });
  }
  auto fast = client.Submit(
      QueryRequest(BestMatchRequest{RampSketch(), /*length=*/0}));
  ASSERT_TRUE(fast.ok());
  EXPECT_NE(slow.value().id(), fast.value().id());

  ASSERT_TRUE(slow.value().Cancel().ok());
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();

  auto fast_final = fast.value().Wait();
  ASSERT_TRUE(fast_final.ok());
  EXPECT_TRUE(fast_final.value().ok);
  EXPECT_FALSE(fast_final.value().partial());

  auto slow_final = slow.value().Wait();
  ASSERT_TRUE(slow_final.ok());
  ASSERT_TRUE(slow_final.value().ok);
  EXPECT_TRUE(slow_final.value().partial());
}

TEST_F(CancellationServerTest, V2StyleSessionWorksAgainstV3Server) {
  StartServer(server::ServerOptions{});
  const Engine twin = BuildMarketEngine(16, 64);
  server::Client client = Connect();

  // Greeting announces v3; a v2 client just reads the line and goes on.
  EXPECT_EQ(client.greeting(),
            "ONEX/" + std::to_string(server::kWireVersion) + " ready");

  // The entire v2 session shape — control verbs, plain query lines,
  // strictly ordered replies — works untouched.
  auto use = client.Roundtrip("use market");
  ASSERT_TRUE(use.ok());
  ASSERT_TRUE(use.value().ok);
  const QueryRequest request = BestMatchRequest{RampSketch(), 0};
  auto wire = client.Execute(request);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(wire.value().ok);
  EXPECT_EQ(wire.value().id(), 0u);  // Untagged reply, no v3 tokens.
  EXPECT_FALSE(wire.value().partial());

  auto direct = twin.Execute(request, ExecContext{});
  ASSERT_TRUE(direct.ok());
  const auto fields = server::ParseKeyValues(wire.value().payload[1]);
  EXPECT_EQ(std::stod(fields.at("distance")),
            direct.value().matches()[0].distance);

  auto ping = client.Roundtrip("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().kind, "Pong");
}

}  // namespace
}  // namespace onex
