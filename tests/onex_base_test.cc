// Tests for OnexBase::Build: stats consistency (Table 4 semantics),
// option validation, index completeness, byte identity with a base
// built one length at a time on the calling thread, and the address
// space a build maps.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>

#include "core/group_builder.h"
#include "core/gti.h"
#include "core/onex_base.h"
#include "core/serialization.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "serial_build.h"
#include "util/rng.h"
#include "util/work_pool.h"

namespace onex {
namespace {

Dataset TestDataset(size_t n = 8, size_t len = 24, uint64_t seed = 42) {
  GenOptions options;
  options.num_series = n;
  options.length = len;
  options.seed = seed;
  Dataset d = MakeItalyPower(options);
  MinMaxNormalize(&d);
  return d;
}

TEST(OnexBaseTest, BuildSucceedsAndIndexesAllLengths) {
  OnexOptions options;
  options.lengths = {4, 24, 4};  // 4, 8, 12, 16, 20, 24.
  auto result = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const OnexBase& base = result.value();
  EXPECT_EQ(base.gti().Lengths().size(), 6u);
  for (size_t len : {4u, 8u, 12u, 16u, 20u, 24u}) {
    ASSERT_NE(base.EntryFor(len), nullptr) << len;
    EXPECT_GT(base.EntryFor(len)->NumGroups(), 0u) << len;
  }
  EXPECT_EQ(base.EntryFor(5), nullptr);
}

TEST(OnexBaseTest, StatsCountEverySubsequence) {
  OnexOptions options;
  options.lengths = {4, 24, 4};
  Dataset d = TestDataset();
  const uint64_t expected =
      d.NumSubsequences(4, 24) -
      // NumSubsequences counts every length in [4,24]; the spec strides
      // by 4, so recompute directly instead.
      0;
  (void)expected;
  uint64_t strided = 0;
  for (size_t len = 4; len <= 24; len += 4) {
    strided += d.size() * (24 - len + 1);
  }
  auto result = OnexBase::Build(std::move(d), options);
  ASSERT_TRUE(result.ok());
  const BaseStats& stats = result.value().stats();
  EXPECT_EQ(stats.num_subsequences, strided);
  EXPECT_EQ(stats.num_lengths, 6u);
  EXPECT_GT(stats.num_representatives, 0u);
  EXPECT_LE(stats.num_representatives, stats.num_subsequences);
  EXPECT_GT(stats.build_seconds, 0.0);
  EXPECT_GT(stats.gti_bytes, 0u);
  EXPECT_GT(stats.lsi_bytes, 0u);
  EXPECT_GT(stats.TotalMb(), 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(OnexBaseTest, CompressionImprovesWithLargerSt) {
  Dataset d = TestDataset(10, 24, 3);
  OnexOptions tight;
  tight.st = 0.05;
  tight.lengths = {8, 16, 4};
  OnexOptions loose = tight;
  loose.st = 0.5;
  auto base_tight = OnexBase::Build(d, tight);
  auto base_loose = OnexBase::Build(std::move(d), loose);
  ASSERT_TRUE(base_tight.ok());
  ASSERT_TRUE(base_loose.ok());
  EXPECT_GE(base_tight.value().stats().num_representatives,
            base_loose.value().stats().num_representatives);
}

TEST(OnexBaseTest, SpSpacePopulatedWhenRequested) {
  OnexOptions options;
  options.lengths = {8, 16, 8};
  options.compute_sp_space = true;
  auto result = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(result.ok());
  const SpSpace& sp = result.value().sp_space();
  EXPECT_FALSE(sp.empty());
  const MergeThresholds global = sp.Global();
  EXPECT_GE(global.st_final, global.st_half);
  EXPECT_GE(global.st_half, options.st);
}

TEST(OnexBaseTest, SpSpaceSkippedWhenDisabled) {
  OnexOptions options;
  options.lengths = {8, 16, 8};
  options.compute_sp_space = false;
  auto result = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().sp_space().empty());
}

TEST(OnexBaseTest, EmptyDatasetRejected) {
  auto result = OnexBase::Build(Dataset("empty"), OnexOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(OnexBaseTest, InvalidOptionsRejected) {
  OnexOptions bad_st;
  bad_st.st = -1.0;
  EXPECT_FALSE(OnexBase::Build(TestDataset(), bad_st).ok());

  OnexOptions bad_lengths;
  bad_lengths.lengths = {10, 5, 1};  // max < min.
  EXPECT_FALSE(OnexBase::Build(TestDataset(), bad_lengths).ok());

  OnexOptions bad_min;
  bad_min.lengths = {1, 0, 1};  // Subsequences must have >= 2 points.
  EXPECT_FALSE(OnexBase::Build(TestDataset(), bad_min).ok());
}

// An infinite st (or one whose squared join radius overflows) made the
// first subsequence "join" a group that did not exist yet; a NaN st
// built a base whose snapshot failed to load; a NaN window ratio reached
// an undefined float-to-integer cast.
TEST(OnexBaseTest, NonFiniteOrOverflowingThresholdsRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double st : {inf, -inf, std::nan(""), 1e200}) {
    OnexOptions options;
    options.st = st;
    options.lengths = {8, 16, 8};
    auto result = OnexBase::Build(TestDataset(), options);
    ASSERT_FALSE(result.ok()) << st;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << st;
  }
  for (double ratio : {std::nan(""), inf}) {
    OnexOptions options;
    options.window_ratio = ratio;
    options.lengths = {8, 16, 8};
    auto result = OnexBase::Build(TestDataset(), options);
    ASSERT_FALSE(result.ok()) << ratio;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
        << ratio;
  }
}

TEST(OnexBaseTest, LargestThresholdsBuildAndReload) {
  for (double st : {OnexOptions::kMaxSt, 1e6}) {
    OnexOptions options;
    options.st = st;
    options.window_ratio = 1.0;
    options.lengths = {8, 16, 8};
    auto built = OnexBase::Build(TestDataset(), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    // Every subsequence is within any finite radius this large.
    for (const auto& [length, entry] : built.value().gti().entries()) {
      EXPECT_EQ(entry.NumGroups(), 1u) << length;
    }
    auto bytes = SaveBaseToString(built.value());
    ASSERT_TRUE(bytes.ok());
    auto reloaded = LoadBaseFromBuffer(bytes.value());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(SaveBaseToString(reloaded.value()).value(), bytes.value());
  }
}

TEST(OnexBaseTest, DatasetRetainedForRefResolution) {
  OnexOptions options;
  options.lengths = {8, 8, 1};
  auto result = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(result.ok());
  const OnexBase& base = result.value();
  const GtiEntry* entry = base.EntryFor(8);
  ASSERT_NE(entry, nullptr);
  // Every member ref resolves within bounds against the stored dataset.
  for (const auto& group : entry->groups) {
    for (const auto& member : group.members) {
      const auto view = member.ref.View(base.dataset());
      EXPECT_EQ(view.size(), 8u);
    }
  }
}

TEST(OnexBaseTest, DeterministicForSeed) {
  OnexOptions options;
  options.lengths = {8, 16, 8};
  options.seed = 123;
  auto a = OnexBase::Build(TestDataset(), options);
  auto b = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().stats().num_representatives,
            b.value().stats().num_representatives);
}

// --------------------------------- Byte identity with a serial build.

struct BuildCase {
  std::string name;
  Dataset dataset;
  LengthSpec lengths;
};

std::vector<BuildCase> BuildCases() {
  std::vector<BuildCase> cases;
  {
    // Explore's shape (TwoPattern, 128 points, lengths 16..128 step
    // 16), on fewer series.
    GenOptions gen;
    gen.num_series = 8;
    gen.length = 128;
    gen.seed = 42;
    Dataset d = MakeTwoPatterns(gen);
    MinMaxNormalize(&d);
    cases.push_back({"explore-shape", std::move(d), {16, 128, 16}});
  }
  {
    // Ragged series: each length has its own subset of series, and the
    // spec's longest lengths reach none (they get no entry).
    GenOptions gen;
    gen.num_series = 6;
    gen.length = 48;
    gen.seed = 7;
    Dataset walk = MakeRandomWalk(gen);
    MinMaxNormalize(&walk);
    Dataset d("ragged");
    for (size_t p = 0; p < walk.size(); ++p) {
      const size_t keep = 10 + 7 * p;
      d.Add(TimeSeries(std::vector<double>(walk[p].values().begin(),
                                           walk[p].values().begin() + keep)));
    }
    cases.push_back({"ragged", std::move(d), {6, 60, 6}});
  }
  cases.push_back({"single-length", TestDataset(10, 32, 3), {12, 12, 1}});
  {
    // Two constant series, far apart: every length holds two groups at
    // a small ST and one at a huge one.
    Dataset d("two-groups");
    d.Add(TimeSeries(std::vector<double>(20, 0.0)));
    d.Add(TimeSeries(std::vector<double>(20, 1.0)));
    cases.push_back({"two-groups", std::move(d), {4, 20, 4}});
  }
  {
    // One series of one length: one subsequence, one group.
    Dataset d("one-group");
    d.Add(TimeSeries(std::vector<double>{0.1, 0.5, 0.2, 0.9}));
    cases.push_back({"one-group", std::move(d), {4, 4, 1}});
  }
  return cases;
}

/// Build spreads lengths over the shared pool's workers and the calling
/// thread, in whatever order they claim them; the bytes of its base are
/// the serial build's on every run. 20 builds per case vary the
/// schedule.
TEST(OnexBaseBuildTest, PoolBuildsTheSerialBuildsBytes) {
  WorkPool caller_only(0);
  for (const BuildCase& c : BuildCases()) {
    for (double st : {1e-3, 0.2, OnexOptions::kMaxSt}) {
      for (bool sp : {true, false}) {
        SCOPED_TRACE(c.name + " st " + std::to_string(st) +
                     (sp ? " sp" : " no-sp"));
        OnexOptions options;
        options.st = st;
        options.lengths = c.lengths;
        options.compute_sp_space = sp;
        auto want = SaveBaseToString(SerialBuild(c.dataset, options));
        ASSERT_TRUE(want.ok());
        auto alone = OnexBase::Build(c.dataset, options, caller_only);
        ASSERT_TRUE(alone.ok());
        EXPECT_EQ(SaveBaseToString(alone.value()).value(), want.value());
        for (int run = 0; run < 20; ++run) {
          auto built = OnexBase::Build(c.dataset, options);
          ASSERT_TRUE(built.ok());
          auto got = SaveBaseToString(built.value());
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(got.value(), want.value()) << "run " << run;
        }
      }
    }
  }
}

// ------------------------------------------ Address space of a build.

/// Whether an address or thread sanitizer runtime, which reserves
/// shadow memory and maps more as it runs, is linked in.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMapsShadow = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerMapsShadow = true;
#else
constexpr bool kSanitizerMapsShadow = false;
#endif
#else
constexpr bool kSanitizerMapsShadow = false;
#endif

/// Bytes of address space this process has mapped (VmSize); 0 where
/// it cannot be read.
size_t MappedBytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      size_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

/// Builds `data` on a pool without workers in a child process whose
/// address space may grow by `headroom` bytes past what it has mapped.
/// Returns the child's exit code: 0 built, 1 ResourceExhausted, 2 any
/// other error, 3 an exception escaped Build; or minus the signal that
/// ended it.
int BuildUnderAddressLimit(const Dataset& data, const OnexOptions& options,
                           size_t headroom) {
  const pid_t pid = fork();
  if (pid == 0) {
    WorkPool alone(0);
    rlimit limit;
    getrlimit(RLIMIT_AS, &limit);
    limit.rlim_cur = MappedBytes() + headroom;
    if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(4);
    try {
      auto base = OnexBase::Build(data, options, alone);
      if (base.ok()) _exit(0);
      _exit(base.status().code() == Status::Code::kResourceExhausted ? 1 : 2);
    } catch (...) {
      _exit(3);
    }
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid) return 5;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

/// Each length's scan storage maps two doubles per point of every
/// subsequence (room for one group per subsequence): 7-17 MB for each
/// of these thirteen lengths of one 2048-point series, 170 MB in all.
/// A build maps one length's at a time per thread that runs its tasks,
/// so with no workers it fits in 48 MB; and where even one length's
/// mapping fails it returns ResourceExhausted instead of throwing.
TEST(OnexBaseBuildTest, ScanStorageIsMappedALengthAtATime) {
  if (kSanitizerMapsShadow) {
    GTEST_SKIP() << "sanitizer runtimes map address space of their own";
  }
  if (MappedBytes() == 0) GTEST_SKIP() << "no VmSize in /proc/self/status";
  Dataset data("flat");
  data.Add(TimeSeries(std::vector<double>(2048, 0.5)));  // One group.
  OnexOptions options;
  options.lengths = {256, 1024, 64};
  EXPECT_EQ(BuildUnderAddressLimit(data, options, 48u << 20), 0);
  EXPECT_EQ(BuildUnderAddressLimit(data, options, 4u << 20), 1);
}

}  // namespace
}  // namespace onex
