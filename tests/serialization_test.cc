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
#include "util/crc32.h"
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

/// A base with both singletons and larger groups at every length.
OnexBase BuildMixedBase() {
  OnexBase base = BuildTestBase();
  for (const auto& [length, entry] : base.gti().entries()) {
    size_t singletons = 0;
    for (const LsiEntry& group : entry.groups) singletons += group.size() == 1;
    EXPECT_GT(singletons, 0u) << length;
    EXPECT_LT(singletons, entry.NumGroups()) << length;
  }
  return base;
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
  OnexBase original = BuildMixedBase();
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
  OnexBase original = BuildMixedBase();
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

void ExpectCorruption(const std::string& bytes, const std::string& what);

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
  EXPECT_EQ(kOnexBaseFormatVersion, 3u);
}

/// Bytes that version 2 spends on `base` beyond version 3. Per entry,
/// version 3 adds a u64 singleton count. A singleton drops its
/// u64-prefixed representative and its ED, and shrinks its u64 member
/// count to a u32 and its 20-byte record to 8 bytes. A larger group
/// drops the representative's u64 prefix, shrinks its member count to a
/// u32, and each 20-byte member record to 16.
int64_t Version2Overhead(const OnexBase& base) {
  int64_t overhead = 0;
  for (const auto& [length, entry] : base.gti().entries()) {
    overhead -= 8;
    for (const LsiEntry& group : entry.groups) {
      const int64_t n = static_cast<int64_t>(group.size());
      overhead += n == 1 ? (8 + 8 * static_cast<int64_t>(length) + 8 + 20) - 12
                         : (8 + 8) - 4 + 4 * n;
    }
  }
  return overhead;
}

/// The number of singleton and of larger groups in `base`.
std::pair<size_t, size_t> GroupMix(const OnexBase& base) {
  size_t singletons = 0, larger = 0;
  for (const auto& [length, entry] : base.gti().entries()) {
    for (const LsiEntry& group : entry.groups) {
      ++(group.size() == 1 ? singletons : larger);
    }
  }
  return {singletons, larger};
}

TEST(SerializationTest, Version1SnapshotLoadsLikeCurrentRoundTrip) {
  const std::string v1_bytes = ReadFile(kVersion1Fixture);
  ASSERT_FALSE(v1_bytes.empty()) << kVersion1Fixture;
  ASSERT_EQ(FormatVersionOf(v1_bytes), 1u);
  auto v1 = LoadBase(kVersion1Fixture);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  // The same base built now from the fixture's own dataset and options,
  // round-tripped through the current format.
  auto rebuilt = OnexBase::Build(v1.value().dataset(), v1.value().options());
  ASSERT_TRUE(rebuilt.ok());
  auto current_bytes = SaveBaseToString(rebuilt.value());
  ASSERT_TRUE(current_bytes.ok());
  auto current = LoadBaseFromBuffer(current_bytes.value());
  ASSERT_TRUE(current.ok()) << current.status().ToString();

  EXPECT_EQ(v1.value().dataset().size(), 5u);
  EXPECT_EQ(v1.value().gti().Lengths(), (std::vector<size_t>{4, 8, 12}));
  ExpectSameGti(v1.value(), current.value());
  ExpectSameQ1Answers(v1.value(), current.value(), 8);

  // Version 1 is version 2 plus each length's Dc block (a u64 count and
  // g^2 doubles), and version 2 is version 3 plus Version2Overhead.
  size_t dc_bytes = 0;
  for (const auto& [length, entry] : v1.value().gti().entries()) {
    dc_bytes += 8 + 8 * entry.NumGroups() * entry.NumGroups();
  }
  EXPECT_EQ(static_cast<int64_t>(current_bytes.value().size()) +
                Version2Overhead(v1.value()) +
                static_cast<int64_t>(dc_bytes),
            static_cast<int64_t>(v1_bytes.size()));

  // Re-saving a loaded version-1 base writes the current version.
  auto resaved = SaveBaseToString(v1.value());
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(resaved.value(), current_bytes.value());
}

// A base written by the format-2 SaveBase: MakeTwoPatterns (5 series of
// 24 points, seed 7, min-max normalized) built with st 0.2, lengths
// {6, 24, 6} and the other options at their defaults. 69 of its 98
// groups are singletons.
const std::string kVersion2Fixture =
    std::string(ONEX_TEST_DATA_DIR) + "/base_v2.onex";

TEST(SerializationTest, Version2SnapshotAnswersLikeAFreshBuild) {
  const std::string v2_bytes = ReadFile(kVersion2Fixture);
  ASSERT_FALSE(v2_bytes.empty()) << kVersion2Fixture;
  ASSERT_EQ(FormatVersionOf(v2_bytes), 2u);
  auto v2 = LoadBase(kVersion2Fixture);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2.value().dataset().size(), 5u);
  EXPECT_EQ(v2.value().gti().Lengths(),
            (std::vector<size_t>{6, 12, 18, 24}));
  EXPECT_EQ(GroupMix(v2.value()), (std::pair<size_t, size_t>{69, 29}));

  auto fresh = OnexBase::Build(v2.value().dataset(), v2.value().options());
  ASSERT_TRUE(fresh.ok());
  ExpectSameGti(fresh.value(), v2.value());
  for (size_t query_length : {6u, 12u, 17u, 24u}) {
    ExpectSameQ1Answers(fresh.value(), v2.value(), query_length);
  }

  // Re-saved, it is the fresh build's version-3 snapshot, smaller by
  // exactly the bytes version 3 no longer spends.
  auto resaved = SaveBaseToString(v2.value());
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(resaved.value(), SaveBaseToString(fresh.value()).value());
  EXPECT_EQ(FormatVersionOf(resaved.value()), 3u);
  EXPECT_EQ(static_cast<int64_t>(resaved.value().size()) +
                Version2Overhead(v2.value()),
            static_cast<int64_t>(v2_bytes.size()));
}

TEST(SerializationTest, FuzzTruncatedVersion2IsCorruption) {
  const std::string bytes = ReadFile(kVersion2Fixture);
  ASSERT_FALSE(bytes.empty());
  for (size_t cut = 0; cut < bytes.size(); cut += 5) {
    auto result = LoadBaseFromBuffer(bytes.substr(0, cut));
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption) << cut;
  }
}

/// A version-2 singleton whose stored representative is not its member
/// cannot be dropped without changing answers: Corruption.
TEST(SerializationTest, Version2SingletonRepresentativeMustBeItsMember) {
  const std::string bytes = ReadFile(kVersion2Fixture);
  auto v2 = LoadBaseFromBuffer(bytes);
  ASSERT_TRUE(v2.ok());
  // Walk the first entry's version-2 group records to its first
  // singleton: u64 representative size, the doubles, u64 member count,
  // 20-byte members.
  const GtiEntry& first = v2.value().gti().entries().begin()->second;
  size_t at = GtiOffset(v2.value()) + /*entry header=*/32;
  const LsiEntry* singleton = nullptr;
  for (const LsiEntry& group : first.groups) {
    if (group.size() == 1) {
      singleton = &group;
      break;
    }
    at += 8 + 8 * first.length + 8 + 20 * group.size();
  }
  ASSERT_NE(singleton, nullptr);
  std::string mutated = bytes;
  double value = 0;
  std::memcpy(&value, mutated.data() + at + 8, sizeof(value));
  value += 0.25;
  std::memcpy(mutated.data() + at + 8, &value, sizeof(value));
  ExpectCorruption(mutated, "singleton representative off its member");

  mutated = bytes;
  const double ed = 1e-3;
  const size_t ed_at = at + 8 + 8 * first.length + 8 + 12;
  std::memcpy(mutated.data() + ed_at, &ed, sizeof(ed));
  ExpectCorruption(mutated, "singleton ED not 0");
}

TEST(SerializationTest, Version1DcPrefixIsBoundsChecked) {
  std::string bytes = ReadFile(kVersion1Fixture);
  auto v1 = LoadBaseFromBuffer(bytes);
  ASSERT_TRUE(v1.ok());
  // The first length's Dc count follows its header and groups.
  const GtiEntry& first = v1.value().gti().entries().begin()->second;
  size_t at = GtiOffset(v1.value()) + /*entry header=*/32;
  for (const LsiEntry& group : first.groups) {
    at += 8 + 8 * first.length + 8 + 20 * group.members.size();
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

// ------------------------------------------------ version-3 groups.

/// The version-3 group records of the first GTI entry of `base`'s
/// snapshot: (byte offset, member count) of each, in group-id order.
struct GroupRecord {
  size_t at = 0;
  uint32_t members = 0;
};
std::vector<GroupRecord> FirstEntryGroupRecords(const OnexBase& base,
                                                const std::string& bytes) {
  const GtiEntry& first = base.gti().entries().begin()->second;
  size_t at = GtiOffset(base) + /*entry header=*/40;
  std::vector<GroupRecord> records;
  for (size_t k = 0; k < first.NumGroups(); ++k) {
    GroupRecord record{at, 0};
    std::memcpy(&record.members, bytes.data() + at, sizeof(record.members));
    records.push_back(record);
    at += 4 + (record.members == 1
                   ? 8
                   : 8 * first.length + 16 * size_t{record.members});
  }
  return records;
}

TEST(SerializationTest, SingletonRecordsHoldOnlyTheirRef) {
  const OnexBase base = BuildMixedBase();
  const std::string bytes = SaveBaseToString(base).value();
  const GtiEntry& first = base.gti().entries().begin()->second;
  const auto records = FirstEntryGroupRecords(base, bytes);
  ASSERT_EQ(records.size(), first.NumGroups());
  uint64_t stored_singletons = 0;
  std::memcpy(&stored_singletons, bytes.data() + GtiOffset(base) + 32,
              sizeof(stored_singletons));
  size_t singletons = 0;
  for (size_t k = 0; k < records.size(); ++k) {
    ASSERT_EQ(records[k].members, first.groups[k].size()) << k;
    if (records[k].members != 1) continue;
    ++singletons;
    uint32_t ref[2];
    std::memcpy(ref, bytes.data() + records[k].at + 4, sizeof(ref));
    EXPECT_EQ(ref[0], first.groups[k].members[0].ref.series);
    EXPECT_EQ(ref[1], first.groups[k].members[0].ref.start);
  }
  EXPECT_EQ(stored_singletons, singletons);
}

/// After a reload, a singleton owns no representative: the one it
/// reads through RepresentativeOf is its member, bit for bit, and its
/// ED to it is +0.0. Checked over bases of several seeds, thresholds
/// and lengths, and over the version-2 fixture.
TEST(SerializationTest, ReloadedSingletonsAreTheirMembers) {
  const auto expect_singletons_are_members = [](const OnexBase& base,
                                                const std::string& what) {
    size_t singletons = 0;
    for (const auto& [length, entry] : base.gti().entries()) {
      for (const LsiEntry& group : entry.groups) {
        if (group.size() != 1) {
          EXPECT_EQ(group.representative.size(), length) << what;
          continue;
        }
        ++singletons;
        EXPECT_TRUE(group.representative.empty()) << what;
        const auto member = group.members[0].ref.View(base.dataset());
        const auto rep = RepresentativeOf(group, base.dataset());
        ASSERT_EQ(rep.size(), length) << what;
        EXPECT_EQ(std::memcmp(rep.data(), member.data(),
                              length * sizeof(double)),
                  0)
            << what;
        EXPECT_EQ(std::signbit(group.members[0].ed_to_rep), false) << what;
        EXPECT_EQ(group.members[0].ed_to_rep, 0.0) << what;
        // The envelope is still derived, around the member.
        EXPECT_EQ(group.envelope.lower.size(), length) << what;
      }
    }
    EXPECT_GT(singletons, 0u) << what;
  };
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (double st : {0.1, 0.3}) {
      GenOptions gen;
      gen.num_series = 6;
      gen.length = 20;
      gen.seed = seed;
      Dataset d = MakeRandomWalk(gen);
      MinMaxNormalize(&d);
      OnexOptions options;
      options.st = st;
      options.lengths = {4, 20, 4};
      auto built = OnexBase::Build(std::move(d), options);
      ASSERT_TRUE(built.ok());
      const std::string what =
          "seed " + std::to_string(seed) + " st " + std::to_string(st);
      expect_singletons_are_members(built.value(), what + " built");
      auto reloaded =
          LoadBaseFromBuffer(SaveBaseToString(built.value()).value());
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
      expect_singletons_are_members(reloaded.value(), what + " reloaded");
      ExpectSameGti(built.value(), reloaded.value());
    }
  }
  auto v2 = LoadBase(kVersion2Fixture);
  ASSERT_TRUE(v2.ok());
  expect_singletons_are_members(v2.value(), "version-2 fixture");
}

TEST(SerializationTest, SingletonRefOutOfRangeIsCorruption) {
  const OnexBase base = BuildMixedBase();
  const std::string good = SaveBaseToString(base).value();
  const GtiEntry& first = base.gti().entries().begin()->second;
  size_t at = 0;
  for (const GroupRecord& record : FirstEntryGroupRecords(base, good)) {
    if (record.members == 1) {
      at = record.at + 4;
      break;
    }
  }
  ASSERT_NE(at, 0u);
  const auto n = static_cast<uint32_t>(base.dataset().size());
  uint32_t series = 0;
  std::memcpy(&series, good.data() + at, sizeof(series));
  const auto last_start = static_cast<uint32_t>(
      base.dataset()[series].length() - first.length);
  const std::vector<std::tuple<size_t, uint32_t, std::string>> cases = {
      {at, n, "series past the dataset"},
      {at, ~uint32_t{0}, "series 2^32 - 1"},
      {at + 4, last_start + 1, "start past the series end"},
      {at + 4, ~uint32_t{0}, "start that wraps start + length"},
  };
  for (const auto& [where, value, what] : cases) {
    std::string mutated = good;
    std::memcpy(mutated.data() + where, &value, sizeof(value));
    ExpectCorruption(mutated, what);
  }
  // The last start that fits still loads.
  std::string edge = good;
  std::memcpy(edge.data() + at + 4, &last_start, sizeof(last_start));
  EXPECT_TRUE(LoadBaseFromBuffer(edge).ok());
}

TEST(SerializationTest, SingletonCountMustMatchTheGroups) {
  const OnexBase base = BuildMixedBase();
  const std::string good = SaveBaseToString(base).value();
  const size_t count_at = GtiOffset(base) + 32;
  const uint64_t groups = base.gti().entries().begin()->second.NumGroups();
  uint64_t singletons = 0;
  std::memcpy(&singletons, good.data() + count_at, sizeof(singletons));
  const std::vector<std::pair<uint64_t, std::string>> cases = {
      {groups + 1, "singleton count larger than group count"},
      {~uint64_t{0}, "singleton count 2^64 - 1"},
      {singletons + 1, "one singleton too many"},
      {singletons - 1, "one singleton too few"},
  };
  for (const auto& [value, what] : cases) {
    std::string mutated = good;
    std::memcpy(mutated.data() + count_at, &value, sizeof(value));
    auto result = LoadBaseFromBuffer(mutated);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption) << what;
  }
  std::string mutated = good;
  const uint64_t too_many = groups + 1;
  std::memcpy(mutated.data() + count_at, &too_many, sizeof(too_many));
  EXPECT_EQ(LoadBaseFromBuffer(mutated).status().message(),
            "singleton count larger than group count");
}

/// A group count is checked against the smallest records it could
/// have before anything is reserved: 12 bytes a singleton, and for a
/// larger group its member count, its representative and two 16-byte
/// members.
TEST(SerializationTest, GroupCountsFitTheMinimumRecordSizes) {
  const OnexBase base = BuildMixedBase();
  const std::string good = SaveBaseToString(base).value();
  const size_t groups_at = GtiOffset(base) + 24;
  const size_t singletons_at = groups_at + 8;
  const size_t length = base.gti().entries().begin()->first;
  const uint64_t left = good.size() - (singletons_at + 8);
  const uint64_t larger_bytes = 4 + 8 * length + 32;
  const auto set = [&](uint64_t groups, uint64_t singletons) {
    std::string mutated = good;
    std::memcpy(mutated.data() + groups_at, &groups, sizeof(groups));
    std::memcpy(mutated.data() + singletons_at, &singletons,
                sizeof(singletons));
    return LoadBaseFromBuffer(mutated).status();
  };
  const std::vector<std::tuple<uint64_t, uint64_t, std::string>> cases = {
      {uint64_t{1} << 40, 0, "2^40 larger groups"},
      {uint64_t{1} << 40, uint64_t{1} << 40, "2^40 singletons"},
      {left / 12 + 1, left / 12 + 1, "one singleton more than fits"},
      {left / larger_bytes + 1, 0, "one larger group more than fits"},
      {left / 12, left / 12 - 1,
       "singletons that fit, with one larger group that then does not"},
  };
  for (const auto& [groups, singletons, what] : cases) {
    const Status status = set(groups, singletons);
    EXPECT_EQ(status.code(), Status::Code::kCorruption) << what;
    EXPECT_EQ(status.message(), "truncated GTI entry") << what;
  }
}

/// Every prefix of a version-3 snapshot with both record kinds, cut at
/// every byte of its GTI, is Corruption.
TEST(SerializationTest, FuzzTruncatedVersion3GtiIsCorruption) {
  const OnexBase base = BuildMixedBase();
  const std::string bytes = SaveBaseToString(base).value();
  for (size_t cut = GtiOffset(base) - 8; cut < bytes.size(); ++cut) {
    auto result = LoadBaseFromBuffer(bytes.substr(0, cut));
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption) << cut;
  }
}

/// Bit flips all over the GTI of a version-3 snapshot with both record
/// kinds: each load gives Corruption or a base that answers queries.
TEST(SerializationTest, FuzzVersion3GtiBitFlipsLoadOrFail) {
  const OnexBase base = BuildMixedBase();
  const std::string good = SaveBaseToString(base).value();
  const size_t gti_at = GtiOffset(base) - 8;
  Rng rng(91);
  int corruptions = 0, loads = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = good;
    const size_t at = gti_at + rng.Uniform(good.size() - gti_at);
    mutated[at] = static_cast<char>(mutated[at] ^ (1 << rng.Uniform(8)));
    auto result = LoadBaseFromBuffer(mutated);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
          << "flip at " << at << ": " << result.status().ToString();
      ++corruptions;
      continue;
    }
    ++loads;
    // A flip that loads left every member ED finite and ascending, as
    // ClosestMemberTo's binary search needs them.
    for (const auto& [length, entry] : result.value().gti().entries()) {
      for (const LsiEntry& group : entry.groups) {
        for (size_t m = 0; m < group.members.size(); ++m) {
          const double ed = group.members[m].ed_to_rep;
          EXPECT_TRUE(std::isfinite(ed)) << "flip at " << at;
          EXPECT_LE(m == 0 ? 0.0 : group.members[m - 1].ed_to_rep, ed)
              << "flip at " << at;
        }
      }
    }
    QueryProcessor processor(&result.value());
    const std::vector<double> query(12, 0.5);
    QueryStats stats;
    EXPECT_TRUE(processor.FindBestMatch(query, &stats).ok()) << at;
  }
  EXPECT_GT(corruptions, 0);
  EXPECT_GT(loads, 0);
}

// ------------------------------------------------ member EDs.

/// Byte offsets of the ED fields of the first larger group, in the first
/// GTI entry, whose first two EDs differ; `member_bytes` is the size of
/// a member record, `ed_offset` where its ED starts, and `first_member`
/// where group record k's members start given its offset.
template <class FirstMember>
std::vector<size_t> FirstLargerGroupEds(const OnexBase& base,
                                        std::vector<size_t> record_offsets,
                                        size_t member_bytes, size_t ed_offset,
                                        FirstMember first_member) {
  const GtiEntry& first = base.gti().entries().begin()->second;
  for (size_t k = 0; k < first.NumGroups(); ++k) {
    const LsiEntry& group = first.groups[k];
    if (group.size() < 2 ||
        !(group.members[0].ed_to_rep < group.members[1].ed_to_rep)) {
      continue;
    }
    std::vector<size_t> eds;
    for (size_t m = 0; m < group.size(); ++m) {
      eds.push_back(first_member(record_offsets[k]) + m * member_bytes +
                    ed_offset);
    }
    return eds;
  }
  return {};
}

/// Swaps the EDs at byte offsets a and b of `bytes`.
std::string SwapEds(std::string bytes, size_t a, size_t b) {
  for (size_t i = 0; i < sizeof(double); ++i) std::swap(bytes[a + i], bytes[b + i]);
  return bytes;
}

std::string SetEd(std::string bytes, size_t at, double ed) {
  std::memcpy(bytes.data() + at, &ed, sizeof(ed));
  return bytes;
}

/// A larger group's member EDs are what ClosestMemberTo binary-searches:
/// one that is not finite, or out of ascending order, would start a
/// value-targeted scan at the wrong member. Version 3 and version 2
/// loads both refuse them as Corruption.
TEST(SerializationTest, LargerGroupEdsMustBeFiniteAndAscending) {
  const auto expect_refused = [](const std::string& good,
                                 const std::vector<size_t>& eds,
                                 const std::string& version) {
    ASSERT_GE(eds.size(), 2u) << version;
    ASSERT_TRUE(LoadBaseFromBuffer(good).ok()) << version;
    const std::vector<std::pair<std::string, std::string>> cases = {
        {SetEd(good, eds[1], std::nan("")), "NaN ED"},
        {SetEd(good, eds.back(), std::numeric_limits<double>::infinity()),
         "infinite ED"},
        {SetEd(good, eds[0], -1e-3), "negative ED"},
        {SwapEds(good, eds[0], eds[1]), "two EDs swapped"},
    };
    for (const auto& [mutated, what] : cases) {
      auto result = LoadBaseFromBuffer(mutated);
      ASSERT_FALSE(result.ok()) << version << ": " << what;
      EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
          << version << ": " << what;
      EXPECT_EQ(result.status().message(),
                "member EDs not finite and ascending")
          << version << ": " << what;
    }
  };

  // Version 3: member records (series, start, ed_to_rep) follow the u32
  // count and the representative.
  const OnexBase base = BuildMixedBase();
  const std::string v3 = SaveBaseToString(base).value();
  const size_t length = base.gti().entries().begin()->first;
  std::vector<size_t> v3_records;
  for (const GroupRecord& record : FirstEntryGroupRecords(base, v3)) {
    v3_records.push_back(record.at);
  }
  expect_refused(v3,
                 FirstLargerGroupEds(base, v3_records, 16, 8,
                                     [&](size_t at) {
                                       return at + 4 + 8 * length;
                                     }),
                 "version 3");

  // Version 2: u64-prefixed representative, u64 count, then 20-byte
  // records (series, start, length, ed_to_rep).
  const std::string v2 = ReadFile(kVersion2Fixture);
  auto loaded = LoadBaseFromBuffer(v2);
  ASSERT_TRUE(loaded.ok());
  const GtiEntry& first = loaded.value().gti().entries().begin()->second;
  std::vector<size_t> v2_records;
  size_t at = GtiOffset(loaded.value()) + /*entry header=*/32;
  for (const LsiEntry& group : first.groups) {
    v2_records.push_back(at);
    at += 8 + 8 * first.length + 8 + 20 * group.size();
  }
  expect_refused(v2,
                 FirstLargerGroupEds(loaded.value(), v2_records, 20, 12,
                                     [&](size_t record) {
                                       return record + 8 + 8 * first.length +
                                              8;
                                     }),
                 "version 2");
}

// ------------------------------------------------ pinned bytes.

/// A random walk whose values need no libm call: Rng draws (integer
/// arithmetic scaled by a power of two) and additions.
TimeSeries PinnedWalk(Rng* rng, size_t length) {
  std::vector<double> values(length);
  double x = 0.0;
  for (double& v : values) {
    x += rng->UniformDouble(-0.125, 0.125);
    v = x;
  }
  return TimeSeries(std::move(values));
}

/// The snapshot of one small fixed base, as built and after two
/// appends, is pinned by its CRC-32: any change to the build's
/// grouping, freeze or encoding that moves a byte fails here. The base
/// has up to 25 groups a length, so the scans span several lane blocks.
TEST(SerializationTest, SnapshotBytesArePinned) {
  Rng rng(2718);
  Dataset d("pinned");
  for (int p = 0; p < 12; ++p) d.Add(PinnedWalk(&rng, 40));
  OnexOptions options;
  options.st = 0.3;
  options.lengths = {8, 40, 8};
  auto built = OnexBase::Build(std::move(d), options);
  ASSERT_TRUE(built.ok());
  OnexBase base = std::move(built).value();
  const std::string bytes = SaveBaseToString(base).value();
  EXPECT_EQ(bytes.size(), 34842u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x734f4affu);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(base.AppendSeries(PinnedWalk(&rng, 40)).ok());
  }
  const std::string appended = SaveBaseToString(base).value();
  EXPECT_EQ(appended.size(), 39042u);
  EXPECT_EQ(Crc32(appended.data(), appended.size()), 0x6b183f51u);
}

}  // namespace
}  // namespace onex
