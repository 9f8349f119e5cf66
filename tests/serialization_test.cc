// Tests for ONEX base persistence: lossless round-trips (including
// query-identical behaviour after reload), format validation, and
// corruption detection.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <tuple>

#include "core/onex_base.h"
#include "core/query_processor.h"
#include "core/serialization.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "util/rng.h"

namespace onex {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

OnexBase BuildTestBase() {
  GenOptions gen;
  gen.num_series = 10;
  gen.length = 24;
  gen.seed = 42;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {6, 24, 6};
  auto result = OnexBase::Build(std::move(d), options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

/// Same lengths, groups, members, envelopes, sum order and markers, bit
/// for bit.
void ExpectSameGti(const OnexBase& original, const OnexBase& copy) {
  ASSERT_EQ(copy.gti().Lengths(), original.gti().Lengths());
  for (size_t length : original.gti().Lengths()) {
    SCOPED_TRACE("length " + std::to_string(length));
    const GtiEntry* a = original.EntryFor(length);
    const GtiEntry* b = copy.EntryFor(length);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->NumGroups(), b->NumGroups());
    EXPECT_EQ(a->st_half, b->st_half);
    EXPECT_EQ(a->st_final, b->st_final);
    for (size_t k = 0; k < a->NumGroups(); ++k) {
      EXPECT_EQ(a->groups[k].representative, b->groups[k].representative);
      ASSERT_EQ(a->groups[k].members.size(), b->groups[k].members.size());
      for (size_t m = 0; m < a->groups[k].members.size(); ++m) {
        EXPECT_EQ(a->groups[k].members[m].ref, b->groups[k].members[m].ref);
        EXPECT_EQ(a->groups[k].members[m].ed_to_rep,
                  b->groups[k].members[m].ed_to_rep);
      }
      // Envelopes are rebuilt, not stored — they must still match.
      EXPECT_EQ(a->groups[k].envelope.lower, b->groups[k].envelope.lower);
      EXPECT_EQ(a->groups[k].envelope.upper, b->groups[k].envelope.upper);
    }
    EXPECT_EQ(a->sum_sorted, b->sum_sorted);
  }
}

/// Q1 (Match = Any) gives the same answer and the same cascade work on
/// both bases.
void ExpectSameQ1Answers(const OnexBase& a, const OnexBase& b,
                         size_t query_length) {
  QueryProcessor p1(&a), p2(&b);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> query(query_length);
    for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);
    const std::span<const double> q(query.data(), query.size());
    QueryStats s1, s2;
    auto r1 = p1.FindBestMatch(q, &s1);
    auto r2 = p2.FindBestMatch(q, &s2);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1.value().ref, r2.value().ref);
    EXPECT_EQ(r1.value().distance, r2.value().distance);
    EXPECT_EQ(s1.reps_compared, s2.reps_compared);
    EXPECT_EQ(s1.members_compared, s2.members_compared);
    EXPECT_EQ(s1.cascade.candidates, s2.cascade.candidates);
  }
}

TEST(SerializationTest, RoundTripPreservesStructure) {
  OnexBase original = BuildTestBase();
  const std::string path = TempPath("onex_base_roundtrip.bin");
  ASSERT_TRUE(SaveBase(original, path).ok());

  auto loaded = LoadBase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const OnexBase& copy = loaded.value();

  EXPECT_EQ(copy.dataset().size(), original.dataset().size());
  EXPECT_EQ(copy.dataset().name(), original.dataset().name());
  EXPECT_EQ(copy.stats().num_representatives,
            original.stats().num_representatives);
  EXPECT_EQ(copy.stats().num_subsequences,
            original.stats().num_subsequences);
  EXPECT_DOUBLE_EQ(copy.options().st, original.options().st);
  ExpectSameGti(original, copy);
  std::remove(path.c_str());
}

TEST(SerializationTest, ReloadedBaseAnswersQueriesIdentically) {
  OnexBase original = BuildTestBase();
  const std::string path = TempPath("onex_base_query.bin");
  ASSERT_TRUE(SaveBase(original, path).ok());
  auto loaded = LoadBase(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSameQ1Answers(original, loaded.value(), 12);
  std::remove(path.c_str());
}

TEST(SerializationTest, SpSpaceSurvivesReload) {
  OnexBase original = BuildTestBase();
  const std::string path = TempPath("onex_base_sp.bin");
  ASSERT_TRUE(SaveBase(original, path).ok());
  auto loaded = LoadBase(path);
  ASSERT_TRUE(loaded.ok());
  const auto a = original.sp_space().Global();
  const auto b = loaded.value().sp_space().Global();
  EXPECT_DOUBLE_EQ(a.st_half, b.st_half);
  EXPECT_DOUBLE_EQ(a.st_final, b.st_final);
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsIOError) {
  auto result = LoadBase("/nonexistent/dir/base.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

TEST(SerializationTest, BadMagicIsCorruption) {
  const std::string path = TempPath("onex_bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE this is not a base";
  }
  auto result = LoadBase(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileIsCorruption) {
  OnexBase original = BuildTestBase();
  const std::string path = TempPath("onex_trunc.bin");
  ASSERT_TRUE(SaveBase(original, path).ok());
  // Truncate to 60% of the size.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 3 / 5);
  auto result = LoadBase(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(SerializationTest, SaveToBadPathIsIOError) {
  OnexBase base = BuildTestBase();
  EXPECT_EQ(SaveBase(base, "/nonexistent/dir/base.bin").code(),
            Status::Code::kIOError);
}

// ------------------------------------------- fuzz-ish robustness.

/// Random truncations: every prefix of a valid base must come back as
/// a structured error (Corruption), never a crash, hang, or giant
/// allocation — LoadBase parses length prefixes it cannot trust.
TEST(SerializationTest, FuzzTruncationAlwaysReturnsCorruption) {
  OnexBase original = BuildTestBase();
  const std::string path = TempPath("onex_fuzz_trunc.bin");
  const std::string mutated = TempPath("onex_fuzz_trunc_cut.bin");
  ASSERT_TRUE(SaveBase(original, path).ok());
  const uint64_t size = std::filesystem::file_size(path);

  Rng rng(1234);  // Seeded: failures reproduce.
  for (int trial = 0; trial < 48; ++trial) {
    const uint64_t cut = rng.Uniform(size);  // In [0, size).
    std::filesystem::copy_file(
        path, mutated, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(mutated, cut);
    auto result = LoadBase(mutated);
    ASSERT_FALSE(result.ok()) << "cut at " << cut << " of " << size;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
        << "cut at " << cut << ": " << result.status().ToString();
  }
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

/// Random bit flips: a flipped byte may survive (it landed in value
/// data) or must surface as Corruption — but never crash, and never
/// turn a length field into a multi-gigabyte resize (the bounded
/// Reader caps every count by the bytes actually remaining).
TEST(SerializationTest, FuzzBitFlipsNeverCrash) {
  OnexBase original = BuildTestBase();
  const std::string path = TempPath("onex_fuzz_flip.bin");
  const std::string mutated = TempPath("onex_fuzz_flip_mut.bin");
  ASSERT_TRUE(SaveBase(original, path).ok());
  const uint64_t size = std::filesystem::file_size(path);

  Rng rng(5678);
  int corruptions = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const uint64_t offset = rng.Uniform(size);
    const int bit = static_cast<int>(rng.Uniform(8));
    std::filesystem::copy_file(
        path, mutated, std::filesystem::copy_options::overwrite_existing);
    {
      std::fstream f(mutated,
                     std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(f.is_open());
      f.seekg(static_cast<std::streamoff>(offset));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ (1 << bit));
      f.seekp(static_cast<std::streamoff>(offset));
      f.write(&byte, 1);
    }
    auto result = LoadBase(mutated);  // Must return, whatever happens.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
          << "flip at " << offset << " bit " << bit << ": "
          << result.status().ToString();
      ++corruptions;
    }
  }
  // Structural bytes dominate value bytes enough that at least some
  // flips must have been caught (sanity check that the loop bites).
  EXPECT_GT(corruptions, 0);
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

/// A length prefix rewritten to a huge value must be rejected by the
/// remaining-bytes bound, not handed to resize() (std::bad_alloc).
TEST(SerializationTest, HugeLengthPrefixIsCorruptionNotBadAlloc) {
  OnexBase original = BuildTestBase();
  const std::string path = TempPath("onex_fuzz_huge.bin");
  ASSERT_TRUE(SaveBase(original, path).ok());
  {
    // The dataset name length (u64 right after magic+version) becomes
    // 2^31: Str must refuse before allocating.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t huge = 1ull << 31;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  auto result = LoadBase(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

// ------------------------------------------------ format versions.

// A base written by the format-1 SaveBase, which also stored each
// length's g x g Dc matrix: MakeItalyPower (5 series of 12 points, seed
// 11, min-max normalized) built with st 0.3, lengths {4, 12, 4}.
const std::string kVersion1Fixture =
    std::string(ONEX_TEST_DATA_DIR) + "/base_v1.onex";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// The file and in-memory entry points share one decoder: the same bytes
/// load into the same base, whichever way they arrive.
TEST(SerializationTest, FileAndBufferLoadsAreIdentical) {
  OnexBase original = BuildTestBase();
  const std::string path = TempPath("onex_base_file_vs_buffer.bin");
  ASSERT_TRUE(SaveBase(original, path).ok());
  const std::string bytes = ReadFile(path);
  auto saved = SaveBaseToString(original);
  ASSERT_TRUE(saved.ok());
  ASSERT_EQ(bytes, saved.value());

  auto from_file = LoadBase(path);
  auto from_buffer = LoadBaseFromBuffer(bytes);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_TRUE(from_buffer.ok()) << from_buffer.status().ToString();
  EXPECT_EQ(SaveBaseToString(from_file.value()).value(), bytes);
  EXPECT_EQ(SaveBaseToString(from_buffer.value()).value(), bytes);
  ExpectSameGti(from_file.value(), from_buffer.value());
  std::remove(path.c_str());

  // A version-1 file too, whose Dc blocks the decoder skips.
  auto v1_file = LoadBase(kVersion1Fixture);
  auto v1_buffer = LoadBaseFromBuffer(ReadFile(kVersion1Fixture));
  ASSERT_TRUE(v1_file.ok()) << v1_file.status().ToString();
  ASSERT_TRUE(v1_buffer.ok()) << v1_buffer.status().ToString();
  EXPECT_EQ(SaveBaseToString(v1_file.value()).value(),
            SaveBaseToString(v1_buffer.value()).value());
}

uint32_t FormatVersionOf(const std::string& bytes) {
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  return version;
}

/// Byte offset of the first GTI entry (its u64 length field).
size_t GtiOffset(const OnexBase& base) {
  size_t at = 4 + 4 + 8 + base.dataset().name().size() + 8;  // Magic..N.
  for (size_t p = 0; p < base.dataset().size(); ++p) {
    at += 4 + 8 + 8 * base.dataset()[p].length();
  }
  return at + /*options=*/52 + /*entry count=*/8;
}

TEST(SerializationTest, SaveWritesCurrentVersion) {
  auto bytes = SaveBaseToString(BuildTestBase());
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(FormatVersionOf(bytes.value()), kOnexBaseFormatVersion);
  EXPECT_EQ(kOnexBaseFormatVersion, 2u);
}

TEST(SerializationTest, Version1SnapshotLoadsLikeVersion2RoundTrip) {
  const std::string v1_bytes = ReadFile(kVersion1Fixture);
  ASSERT_FALSE(v1_bytes.empty()) << kVersion1Fixture;
  ASSERT_EQ(FormatVersionOf(v1_bytes), 1u);
  auto v1 = LoadBase(kVersion1Fixture);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  // The same base built now from the fixture's own dataset and options,
  // round-tripped through the current format.
  auto rebuilt = OnexBase::Build(v1.value().dataset(), v1.value().options());
  ASSERT_TRUE(rebuilt.ok());
  auto v2_bytes = SaveBaseToString(rebuilt.value());
  ASSERT_TRUE(v2_bytes.ok());
  auto v2 = LoadBaseFromBuffer(v2_bytes.value());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  EXPECT_EQ(v1.value().dataset().size(), 5u);
  EXPECT_EQ(v1.value().gti().Lengths(), (std::vector<size_t>{4, 8, 12}));
  ExpectSameGti(v1.value(), v2.value());
  ExpectSameQ1Answers(v1.value(), v2.value(), 8);

  // Version 2 is version 1 minus each length's Dc block: a u64 count
  // and g^2 doubles.
  size_t dc_bytes = 0;
  for (const auto& [length, entry] : v1.value().gti().entries()) {
    dc_bytes += 8 + 8 * entry.NumGroups() * entry.NumGroups();
  }
  EXPECT_EQ(v2_bytes.value().size() + dc_bytes, v1_bytes.size());

  // Re-saving a loaded version-1 base writes version 2.
  auto resaved = SaveBaseToString(v1.value());
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(resaved.value(), v2_bytes.value());
}

TEST(SerializationTest, Version1DcPrefixIsBoundsChecked) {
  std::string bytes = ReadFile(kVersion1Fixture);
  auto v1 = LoadBaseFromBuffer(bytes);
  ASSERT_TRUE(v1.ok());
  // The first length's Dc count follows its header and groups.
  const GtiEntry& first = v1.value().gti().entries().begin()->second;
  size_t at = GtiOffset(v1.value()) + /*entry header=*/32;
  for (const LsiEntry& group : first.groups) {
    at += 8 + 8 * group.representative.size() + 8 + 20 * group.members.size();
  }
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + at, sizeof(count));
  ASSERT_EQ(count, first.NumGroups() * first.NumGroups());

  for (uint64_t bad : {uint64_t{1} << 40, uint64_t{bytes.size()}, count + 1}) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + at, &bad, sizeof(bad));
    auto result = LoadBaseFromBuffer(mutated);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption) << bad;
  }
}

TEST(SerializationTest, FuzzTruncatedVersion1IsCorruption) {
  const std::string bytes = ReadFile(kVersion1Fixture);
  ASSERT_FALSE(bytes.empty());
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    auto result = LoadBaseFromBuffer(bytes.substr(0, cut));
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption) << cut;
  }
}

// ------------------------------------------ hand-corrupted GTI blocks.

/// Loads `bytes` and expects Corruption.
void ExpectCorruption(const std::string& bytes, const std::string& what) {
  auto result = LoadBaseFromBuffer(bytes);
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
      << what << ": " << result.status().ToString();
}

// The last length's sum block closes the file: g records of
// (u32 group id, f64 sum), ascending by sum.
struct SumRecords {
  std::string bytes;
  size_t g = 0;
  size_t Offset(size_t i) const { return bytes.size() - 12 * (g - i); }
  uint32_t Id(size_t i) const {
    uint32_t k = 0;
    std::memcpy(&k, bytes.data() + Offset(i), sizeof(k));
    return k;
  }
  double Sum(size_t i) const {
    double sum = 0;
    std::memcpy(&sum, bytes.data() + Offset(i) + 4, sizeof(sum));
    return sum;
  }
  void SetId(size_t i, uint32_t k) {
    std::memcpy(bytes.data() + Offset(i), &k, sizeof(k));
  }
  void SetSum(size_t i, double sum) {
    std::memcpy(bytes.data() + Offset(i) + 4, &sum, sizeof(sum));
  }
};

SumRecords LastSumRecords(const OnexBase& base) {
  SumRecords records;
  records.bytes = SaveBaseToString(base).value();
  records.g = base.gti().entries().rbegin()->second.NumGroups();
  return records;
}

TEST(SerializationTest, DuplicatedSumIdIsCorruption) {
  // Loaded, such a snapshot would make the median-out search skip the
  // group whose id was overwritten, without any error.
  const OnexBase base = BuildTestBase();
  SumRecords records = LastSumRecords(base);
  ASSERT_GE(records.g, 2u);
  ASSERT_TRUE(LoadBaseFromBuffer(records.bytes).ok());
  records.SetId(1, records.Id(0));
  ExpectCorruption(records.bytes, "duplicated group id");
}

TEST(SerializationTest, UnsortedSumBlockIsCorruption) {
  const OnexBase base = BuildTestBase();
  SumRecords records = LastSumRecords(base);
  ASSERT_GE(records.g, 2u);
  records.SetSum(0, records.Sum(records.g - 1) + 1.0);
  ExpectCorruption(records.bytes, "descending sums");
  records = LastSumRecords(base);
  records.SetSum(records.g - 1, std::nan(""));
  ExpectCorruption(records.bytes, "NaN sum");
}

TEST(SerializationTest, BadSpSpaceMarkersAreCorruption) {
  const OnexBase base = BuildTestBase();
  const std::string good = SaveBaseToString(base).value();
  // The first entry's header: u64 length, f64 st_half, f64 st_final.
  const size_t half_at = GtiOffset(base) + 8;
  const size_t final_at = half_at + 8;
  const GtiEntry& first = base.gti().entries().begin()->second;
  ASSERT_LT(first.st_half, first.st_final);  // Room to break the order.
  double stored = 0;
  std::memcpy(&stored, good.data() + half_at, sizeof(stored));
  ASSERT_EQ(stored, first.st_half);

  const double st = base.options().st;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::tuple<size_t, double, std::string>> cases = {
      {half_at, std::nan(""), "NaN st_half"},
      {final_at, inf, "infinite st_final"},
      {half_at, st - 0.01, "st_half below st"},
      {half_at, first.st_final + 0.01, "st_half above st_final"},
      {final_at, first.st_half - 0.001, "st_final below st_half"},
  };
  for (const auto& [at, value, what] : cases) {
    std::string mutated = good;
    std::memcpy(mutated.data() + at, &value, sizeof(value));
    ExpectCorruption(mutated, what);
  }
}

}  // namespace
}  // namespace onex
