// Tests for the onex::Engine facade: every QueryRequest kind must
// round-trip through Execute with results identical to the direct
// QueryProcessor / Recommender / ThresholdRefiner calls, and concurrent
// Execute / AppendSeries traffic must stay well-formed (run the suite with
// -DONEX_SANITIZE=thread to have TSan check the locking).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "core/onex_base.h"
#include "core/query_processor.h"
#include "core/recommender.h"
#include "core/threshold_refiner.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "parked_query.h"
#include "storage/append_sink.h"
#include "util/rng.h"

namespace onex {
namespace {

std::span<const double> S(const std::vector<double>& v) {
  return std::span<const double>(v.data(), v.size());
}

Dataset TestDataset(size_t n = 10, size_t len = 24, uint64_t seed = 42) {
  GenOptions options;
  options.num_series = n;
  options.length = len;
  options.seed = seed;
  Dataset d = MakeItalyPower(options);
  MinMaxNormalize(&d);
  return d;
}

OnexBase BuildRawBase(uint64_t seed = 42) {
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto built = OnexBase::Build(TestDataset(10, 24, seed), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// An engine and an identical standalone base for parity checks: the
/// build is deterministic, so direct component calls against `base`
/// must agree exactly with Engine::Execute answers.
struct ParityFixture {
  OnexBase base;
  Engine engine;

  ParityFixture()
      : base(BuildRawBase()), engine(Engine::FromBase(BuildRawBase())) {}
};

std::vector<double> QueryFrom(const Dataset& d, uint32_t p, uint32_t j,
                              uint32_t len) {
  const auto view = d[p].Subsequence(j, len);
  return std::vector<double>(view.begin(), view.end());
}

void ExpectSameMatch(const QueryMatch& a, const QueryMatch& b) {
  EXPECT_EQ(a.ref, b.ref);
  EXPECT_EQ(a.group_id, b.group_id);
  EXPECT_EQ(a.distance_is_upper_bound, b.distance_is_upper_bound);
  EXPECT_DOUBLE_EQ(a.distance, b.distance);
}

// ------------------------------------------------ Q1 best match parity.

TEST(EngineTest, BestMatchExactLengthMatchesDirectCall) {
  ParityFixture f;
  QueryProcessor direct(&f.base);
  const auto query = QueryFrom(f.base.dataset(), 2, 3, 8);

  auto response = f.engine.Execute(BestMatchRequest{query, 8}, ExecContext{});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().matches().size(), 1u);
  EXPECT_EQ(response.value().kind, QueryKind::kBestMatch);

  QueryStats direct_stats;
  auto want = direct.FindBestMatchOfLength(S(query), 8, &direct_stats);
  ASSERT_TRUE(want.ok());
  ExpectSameMatch(response.value().matches()[0], want.value());
  // The per-call stats travel with the response and match the direct
  // call's work exactly.
  EXPECT_EQ(response.value().stats.reps_compared, direct_stats.reps_compared);
  EXPECT_EQ(response.value().stats.members_compared,
            direct_stats.members_compared);
  EXPECT_GE(response.value().latency_seconds, 0.0);
}

TEST(EngineTest, BestMatchAnyLengthMatchesDirectCall) {
  ParityFixture f;
  QueryProcessor direct(&f.base);
  const auto query = QueryFrom(f.base.dataset(), 5, 2, 12);

  auto response = f.engine.Execute(BestMatchRequest{query, 0}, ExecContext{});
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().matches().size(), 1u);

  auto want = direct.FindBestMatch(S(query));
  ASSERT_TRUE(want.ok());
  ExpectSameMatch(response.value().matches()[0], want.value());
}

// --------------------------------------------------- kSimilar parity.

TEST(EngineTest, KSimilarMatchesDirectCall) {
  ParityFixture f;
  QueryProcessor direct(&f.base);
  const auto query = QueryFrom(f.base.dataset(), 1, 0, 8);

  auto response = f.engine.Execute(KSimilarRequest{query, 5, 8}, ExecContext{});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().kind, QueryKind::kKSimilar);

  auto want = direct.FindKSimilar(S(query), 5, 8);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(response.value().matches().size(), want.value().size());
  for (size_t i = 0; i < want.value().size(); ++i) {
    ExpectSameMatch(response.value().matches()[i], want.value()[i]);
  }
}

// ------------------------------------------------ range-within parity.

TEST(EngineTest, RangeWithinMatchesDirectCall) {
  ParityFixture f;
  QueryProcessor direct(&f.base);
  const auto query = QueryFrom(f.base.dataset(), 0, 0, 16);

  for (bool exact : {false, true}) {
    auto response = f.engine.Execute(
        RangeWithinRequest{query, f.base.options().st, 0, exact}, ExecContext{});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().kind, QueryKind::kRangeWithin);

    auto want = direct.FindAllWithin(S(query), f.base.options().st, 0, exact);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(response.value().matches().size(), want.value().size());
    for (size_t i = 0; i < want.value().size(); ++i) {
      ExpectSameMatch(response.value().matches()[i], want.value()[i]);
    }
  }
}

// --------------------------------------------------- seasonal parity.

TEST(EngineTest, SeasonalBothModesMatchDirectCalls) {
  ParityFixture f;
  QueryProcessor direct(&f.base);

  auto user = f.engine.Execute(SeasonalRequest{uint32_t{0}, 8}, ExecContext{});
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user.value().kind, QueryKind::kSeasonal);
  auto want_user = direct.SeasonalSimilarity(0, 8);
  ASSERT_TRUE(want_user.ok());
  EXPECT_EQ(user.value().groups(), want_user.value());

  auto data = f.engine.Execute(SeasonalRequest{std::nullopt, 8}, ExecContext{});
  ASSERT_TRUE(data.ok());
  auto want_data = direct.SimilarGroupsOfLength(8);
  ASSERT_TRUE(want_data.ok());
  EXPECT_EQ(data.value().groups(), want_data.value());
}

// -------------------------------------------------- recommend parity.

TEST(EngineTest, RecommendMatchesDirectCalls) {
  ParityFixture f;
  Recommender direct(&f.base);

  auto one = f.engine.Execute(
      RecommendRequest{SimilarityDegree::kStrict, size_t{0}}, ExecContext{});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().kind, QueryKind::kRecommend);
  ASSERT_EQ(one.value().recommendations().size(), 1u);
  const Recommendation want = direct.Recommend(SimilarityDegree::kStrict, 0);
  EXPECT_EQ(one.value().recommendations()[0].degree, want.degree);
  EXPECT_DOUBLE_EQ(one.value().recommendations()[0].st_low, want.st_low);
  EXPECT_DOUBLE_EQ(one.value().recommendations()[0].st_high, want.st_high);

  auto all = f.engine.Execute(RecommendRequest{std::nullopt, size_t{0}}, ExecContext{});
  ASSERT_TRUE(all.ok());
  const auto want_all = direct.AllDegrees(0);
  ASSERT_EQ(all.value().recommendations().size(), want_all.size());
  for (size_t i = 0; i < want_all.size(); ++i) {
    EXPECT_EQ(all.value().recommendations()[i].degree, want_all[i].degree);
    EXPECT_DOUBLE_EQ(all.value().recommendations()[i].st_low,
                     want_all[i].st_low);
    EXPECT_DOUBLE_EQ(all.value().recommendations()[i].st_high,
                     want_all[i].st_high);
  }
}

// ----------------------------------------------- refinement parity.

TEST(EngineTest, RefineThresholdMatchesDirectCalls) {
  ParityFixture f;
  ThresholdRefiner direct(&f.base);
  const double st_prime = f.base.options().st / 2.0;

  auto one = f.engine.Execute(RefineThresholdRequest{st_prime, 16}, ExecContext{});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().kind, QueryKind::kRefineThreshold);
  ASSERT_EQ(one.value().refinements().size(), 1u);
  auto want = direct.RefineLength(16, st_prime);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(one.value().refinements()[0].length, 16u);
  EXPECT_EQ(one.value().refinements()[0].groups_after,
            want.value().NumGroups());
  EXPECT_EQ(one.value().refinements()[0].groups_before,
            f.base.EntryFor(16)->NumGroups());

  auto all = f.engine.Execute(RefineThresholdRequest{st_prime, 0}, ExecContext{});
  ASSERT_TRUE(all.ok());
  auto want_all = direct.RefineAll(st_prime);
  ASSERT_TRUE(want_all.ok());
  ASSERT_EQ(all.value().refinements().size(),
            want_all.value().entries().size());
  for (const auto& summary : all.value().refinements()) {
    const GtiEntry* refined = want_all.value().Find(summary.length);
    ASSERT_NE(refined, nullptr);
    EXPECT_EQ(summary.groups_after, refined->NumGroups());
  }
}

// --------------------------------------------- errors, batch, naming.

TEST(EngineTest, ErrorsPropagateAsStatuses) {
  Engine engine = Engine::FromBase(BuildRawBase());
  std::vector<double> query(7, 0.5);
  auto bad_length = engine.Execute(BestMatchRequest{query, 7}, ExecContext{});
  ASSERT_FALSE(bad_length.ok());
  EXPECT_EQ(bad_length.status().code(), Status::Code::kNotFound);

  auto empty = engine.Execute(BestMatchRequest{{}, 0}, ExecContext{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), Status::Code::kInvalidArgument);

  auto bad_st = engine.Execute(RefineThresholdRequest{-0.1, 8}, ExecContext{});
  EXPECT_FALSE(bad_st.ok());
}

// Every query kind that carries query values rejects a non-finite one,
// the rule the wire parser applies, instead of answering wrongly (a NaN
// made BestMatch NotFound, KSimilar rows of distance nan, and RangeWithin
// an empty answer).
std::vector<std::vector<double>> NonFiniteQueries() {
  std::vector<std::vector<double>> out;
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    std::vector<double> query(8, 0.5);
    query[3] = bad;
    out.push_back(query);
  }
  return out;
}

void ExpectNonFiniteRejected(const Result<QueryResponse>& response) {
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(response.status().message().find("query value 3"),
            std::string::npos)
      << response.status().ToString();
}

TEST(EngineTest, BestMatchRejectsNonFiniteQueryValues) {
  Engine engine = Engine::FromBase(BuildRawBase());
  for (const auto& query : NonFiniteQueries()) {
    ExpectNonFiniteRejected(
        engine.Execute(BestMatchRequest{query, 8}, ExecContext{}));
    ExpectNonFiniteRejected(
        engine.Execute(BestMatchRequest{query, 0}, ExecContext{}));
  }
}

TEST(EngineTest, KSimilarRejectsNonFiniteQueryValues) {
  Engine engine = Engine::FromBase(BuildRawBase());
  for (const auto& query : NonFiniteQueries()) {
    ExpectNonFiniteRejected(
        engine.Execute(KSimilarRequest{query, 3, 8}, ExecContext{}));
    ExpectNonFiniteRejected(
        engine.Execute(KSimilarRequest{query, 3, 0}, ExecContext{}));
  }
}

TEST(EngineTest, RangeWithinRejectsNonFiniteQueryValues) {
  Engine engine = Engine::FromBase(BuildRawBase());
  for (const auto& query : NonFiniteQueries()) {
    ExpectNonFiniteRejected(engine.Execute(
        RangeWithinRequest{query, 0.2, 8, false}, ExecContext{}));
    ExpectNonFiniteRejected(engine.Execute(
        RangeWithinRequest{query, 0.2, 0, true}, ExecContext{}));
  }
}

TEST(EngineTest, KindNamesAreStable) {
  EXPECT_STREQ(ToString(KindOf(BestMatchRequest{})), "BestMatch");
  EXPECT_STREQ(ToString(KindOf(KSimilarRequest{})), "KSimilar");
  EXPECT_STREQ(ToString(KindOf(RangeWithinRequest{})), "RangeWithin");
  EXPECT_STREQ(ToString(KindOf(SeasonalRequest{})), "Seasonal");
  EXPECT_STREQ(ToString(KindOf(RecommendRequest{})), "Recommend");
  EXPECT_STREQ(ToString(KindOf(RefineThresholdRequest{})),
               "RefineThreshold");
}

// ------------------------------------------------------- maintenance.

TEST(EngineTest, AppendSeriesGrowsTheBase) {
  Engine engine = Engine::FromBase(BuildRawBase());
  const size_t before = engine.num_series();
  Rng rng(7);
  std::vector<double> values(24);
  for (auto& x : values) x = rng.UniformDouble(0.0, 1.0);
  ASSERT_TRUE(engine.AppendSeries(TimeSeries(values)).ok());
  EXPECT_EQ(engine.num_series(), before + 1);
  // The appended series is immediately queryable.
  auto response = engine.Execute(BestMatchRequest{values, 24}, ExecContext{});
  ASSERT_TRUE(response.ok());
  EXPECT_LE(response.value().matches()[0].distance, 1e-9);
}

// ------------------------------------- concurrent query-vs-append stress.

TEST(EngineTest, ConcurrentQueriesAndAppendsStaySound) {
  Engine engine = Engine::FromBase(BuildRawBase());
  const size_t series_before = engine.num_series();

  constexpr int kReaders = 4;
  constexpr int kAppends = 6;
  constexpr int kQueriesPerReader = 60;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> queries_answered{0};

  // Bounded loops on both sides: platform rwlocks may prefer readers, so
  // a reader loop gated on writer progress could starve the writer into
  // a livelock. Every thread runs a fixed amount of work and exits; the
  // scheduler interleaves queries and appends within that window.
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    for (int iter = 0; iter < kQueriesPerReader; ++iter) {
      std::vector<double> query(16);
      for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);
      QueryRequest request;
      switch (iter % 3) {
        case 0: request = BestMatchRequest{query, 0}; break;
        case 1: request = KSimilarRequest{query, 3, 16}; break;
        default: request = RangeWithinRequest{query, 0.3, 16, false}; break;
      }
      auto response = engine.Execute(request, ExecContext{});
      if (!response.ok() ||
          (response.value().kind == QueryKind::kBestMatch &&
           (response.value().matches().empty() ||
            !std::isfinite(response.value().matches()[0].distance)))) {
        failures.fetch_add(1);
      }
      queries_answered.fetch_add(1);
      // Periodically leave a gap so the writer can grab the lock even
      // under reader-preferring rwlock policies.
      if (iter % 8 == 7) std::this_thread::yield();
    }
  };

  auto writer = [&] {
    Rng rng(99);
    for (int i = 0; i < kAppends; ++i) {
      std::vector<double> values(24);
      for (auto& x : values) x = rng.UniformDouble(0.0, 1.0);
      if (!engine.AppendSeries(TimeSeries(values)).ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(reader, static_cast<uint64_t>(r + 1));
  }
  threads.emplace_back(writer);
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.num_series(), series_before + kAppends);
  EXPECT_EQ(queries_answered.load(),
            static_cast<uint64_t>(kReaders) * kQueriesPerReader);

  // The base is intact after the storm: an in-dataset query still comes
  // back at distance ~0.
  const auto probe = QueryFrom(engine.dataset(), 2, 3, 8);
  auto response = engine.Execute(BestMatchRequest{probe, 8}, ExecContext{});
  ASSERT_TRUE(response.ok());
  EXPECT_LE(response.value().matches()[0].distance, 1e-9);
}

// ------------------------------------------- versions vs. parked queries.

/// Seasonal data-driven mode: streams one progress event per confirmed
/// group, so a ParkedQuery parks inside it.
SeasonalRequest ParkableRequest() { return SeasonalRequest{std::nullopt, 8}; }

/// A copy of series 0: its subsequences join existing groups, so the
/// answer of ParkableRequest() changes once it is appended.
TimeSeries CopyOfFirstSeries(const Engine& engine) {
  const TimeSeries& first = engine.dataset()[0];
  const auto values = first.Subsequence(0, first.length());
  return TimeSeries(std::vector<double>(values.begin(), values.end()));
}

TEST(EngineTest, AppendDoesNotWaitForAParkedQuery) {
  Engine engine = Engine::FromBase(BuildRawBase());
  const size_t series_before = engine.num_series();
  TimeSeries appended = CopyOfFirstSeries(engine);
  // Declared before the query so that, on an early return, the query
  // is released before the pending append is waited for.
  std::future<Status> append;
  ParkedQuery parked(engine, ParkableRequest());
  ASSERT_TRUE(parked.WaitParked());

  append = std::async(std::launch::async, [&] {
    return engine.AppendSeries(std::move(appended));
  });
  EXPECT_EQ(append.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_TRUE(parked.Finish().ok());
  EXPECT_TRUE(append.get().ok());
  EXPECT_EQ(engine.num_series(), series_before + 1);
}

TEST(EngineTest, ParkedQueryAnswersFromTheVersionItPinned) {
  Engine engine = Engine::FromBase(BuildRawBase());
  auto before = engine.Execute(ParkableRequest(), ExecContext{});
  ASSERT_TRUE(before.ok());
  TimeSeries appended = CopyOfFirstSeries(engine);
  // Declared before the query so that, on an early return, the query
  // is released before the pending append is waited for.
  std::future<Status> append;
  ParkedQuery parked(engine, ParkableRequest());
  ASSERT_TRUE(parked.WaitParked());

  append = std::async(std::launch::async, [&] {
    return engine.AppendSeries(std::move(appended));
  });
  // The append lands while the query is still parked.
  ASSERT_EQ(append.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_TRUE(append.get().ok());
  auto after = engine.Execute(ParkableRequest(), ExecContext{});
  ASSERT_TRUE(after.ok());
  ASSERT_NE(after.value().groups(), before.value().groups());

  auto released = parked.Finish();
  ASSERT_TRUE(released.ok());
  EXPECT_FALSE(released.value().partial);
  EXPECT_EQ(released.value().groups(), before.value().groups());
}

/// A sink that holds its first logged batch until Release(): the
/// append it belongs to is logged but not yet published meanwhile.
class HoldingSink : public storage::AppendSink {
 public:
  Status LogAppend(std::span<const TimeSeries>) override {
    std::unique_lock<std::mutex> lock(mutex_);
    logged_ = true;
    changed_.notify_all();
    changed_.wait_for(lock, std::chrono::seconds(60),
                      [this] { return released_; });
    return Status::OK();
  }
  bool WaitLogged() {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, std::chrono::seconds(10),
                             [this] { return logged_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool logged_ = false;
  bool released_ = false;
};

TEST(EngineTest, PinSettledHoldsEveryLoggedAppend) {
  // A checkpoint pins with PinSettled: an append whose record is
  // already in the log must be in the version it serializes.
  Engine engine = Engine::FromBase(BuildRawBase());
  const size_t series_before = engine.num_series();
  HoldingSink sink;
  engine.AttachAppendSink(&sink);
  auto append = std::async(std::launch::async, [&] {
    return engine.AppendSeries(CopyOfFirstSeries(engine));
  });
  ASSERT_TRUE(sink.WaitLogged());
  auto settled = std::async(std::launch::async,
                            [&] { return engine.PinSettled(); });
  EXPECT_EQ(settled.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  // Queries are not held off meanwhile.
  EXPECT_EQ(engine.Pin()->dataset().size(), series_before);
  sink.Release();
  ASSERT_TRUE(append.get().ok());
  EXPECT_EQ(settled.get()->dataset().size(), series_before + 1);
  engine.AttachAppendSink(nullptr);
}

// ------------------------------------------------------ build helpers.

TEST(EngineTest, BuildValidatesOptions) {
  OnexOptions bad;
  bad.st = -1.0;
  auto result = Engine::Build(TestDataset(), bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);

  OnexOptions good;
  good.st = 0.2;
  good.lengths = {8, 24, 8};
  auto engine = Engine::Build(TestDataset(), good);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_GT(engine.value().base_stats().num_representatives, 0u);
}

TEST(EngineTest, SaveAndOpenRoundTrip) {
  Engine engine = Engine::FromBase(BuildRawBase());
  const std::string path = ::testing::TempDir() + "engine_roundtrip.onex";
  ASSERT_TRUE(engine.Save(path).ok());
  auto reopened = Engine::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  const auto query = QueryFrom(engine.dataset(), 4, 2, 8);
  auto a = engine.Execute(BestMatchRequest{query, 8}, ExecContext{});
  auto b = reopened.value().Execute(BestMatchRequest{query, 8},
                                    ExecContext{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameMatch(a.value().matches()[0], b.value().matches()[0]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace onex
