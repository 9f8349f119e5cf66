// Tests for the shared wire grammar (src/server/protocol.h): every
// QueryRequest kind must survive RenderRequestLine -> ParseRequestLine
// bit-exactly, reply blocks must round-trip through ParseResponseBlock,
// and malformed input must come back as InvalidArgument with a message
// (never crash, never silently widen a query).

#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace onex {
namespace server {
namespace {

QueryRequest RoundTrip(const QueryRequest& request) {
  const std::string line = RenderRequestLine(request);
  auto parsed = ParseRequestLine(line);
  EXPECT_TRUE(parsed.ok()) << line << " -> " << parsed.status().ToString();
  const auto* query = std::get_if<QueryRequest>(&parsed.value());
  EXPECT_NE(query, nullptr) << line;
  return *query;
}

// ------------------------------------------- request round trips (x6).

TEST(ProtocolTest, BestMatchRoundTrips) {
  const BestMatchRequest original{{0.25, -1.5, 3e-7, 0.1}, 16};
  const auto back = std::get<BestMatchRequest>(RoundTrip(original));
  EXPECT_EQ(back.query, original.query);  // %.17g is bit-exact.
  EXPECT_EQ(back.length, original.length);

  const auto any = std::get<BestMatchRequest>(
      RoundTrip(BestMatchRequest{{1.0, 2.0}, 0}));
  EXPECT_EQ(any.length, 0u);
}

TEST(ProtocolTest, KSimilarRoundTrips) {
  const KSimilarRequest original{{0.5, 0.25, 0.125}, 7, 8};
  const auto back = std::get<KSimilarRequest>(RoundTrip(original));
  EXPECT_EQ(back.query, original.query);
  EXPECT_EQ(back.k, original.k);
  EXPECT_EQ(back.length, original.length);
}

TEST(ProtocolTest, RangeWithinRoundTrips) {
  const RangeWithinRequest exact{{0.1, 0.9}, 0.15, 0, true};
  const auto back = std::get<RangeWithinRequest>(RoundTrip(exact));
  EXPECT_EQ(back.query, exact.query);
  EXPECT_DOUBLE_EQ(back.st, exact.st);
  EXPECT_EQ(back.length, 0u);
  EXPECT_TRUE(back.exact_distances);

  // The "bound" modifier flips exact_distances off and round-trips too.
  const RangeWithinRequest bound{{0.1}, 0.3, 12, false};
  const auto back2 = std::get<RangeWithinRequest>(RoundTrip(bound));
  EXPECT_FALSE(back2.exact_distances);
  EXPECT_EQ(back2.length, 12u);
}

TEST(ProtocolTest, SeasonalRoundTrips) {
  const auto user = std::get<SeasonalRequest>(
      RoundTrip(SeasonalRequest{uint32_t{5}, 12}));
  ASSERT_TRUE(user.series_id.has_value());
  EXPECT_EQ(*user.series_id, 5u);
  EXPECT_EQ(user.length, 12u);

  const auto data =
      std::get<SeasonalRequest>(RoundTrip(SeasonalRequest{std::nullopt, 8}));
  EXPECT_FALSE(data.series_id.has_value());
  EXPECT_EQ(data.length, 8u);
}

TEST(ProtocolTest, RecommendRoundTrips) {
  const auto one = std::get<RecommendRequest>(
      RoundTrip(RecommendRequest{SimilarityDegree::kLoose, 16}));
  ASSERT_TRUE(one.degree.has_value());
  EXPECT_EQ(*one.degree, SimilarityDegree::kLoose);
  EXPECT_EQ(one.length, 16u);

  const auto all = std::get<RecommendRequest>(
      RoundTrip(RecommendRequest{std::nullopt, 0}));
  EXPECT_FALSE(all.degree.has_value());
  EXPECT_EQ(all.length, 0u);
}

TEST(ProtocolTest, RefineThresholdRoundTrips) {
  const auto one = std::get<RefineThresholdRequest>(
      RoundTrip(RefineThresholdRequest{0.12345678901234567, 24}));
  EXPECT_DOUBLE_EQ(one.st_prime, 0.12345678901234567);
  EXPECT_EQ(one.length, 24u);

  const auto all = std::get<RefineThresholdRequest>(
      RoundTrip(RefineThresholdRequest{0.3, 0}));
  EXPECT_EQ(all.length, 0u);
}

// -------------------------------------------------- grammar niceties.

TEST(ProtocolTest, VerbsAreCaseInsensitive) {
  auto parsed = ParseRequestLine("Q1 ANY 0.1,0.2");
  ASSERT_TRUE(parsed.ok());
  const auto& q = std::get<BestMatchRequest>(
      std::get<QueryRequest>(parsed.value()));
  EXPECT_EQ(q.length, 0u);
  EXPECT_EQ(q.query.size(), 2u);

  auto control = ParseRequestLine("PING");
  ASSERT_TRUE(control.ok());
  EXPECT_EQ(std::get<ControlRequest>(control.value()).verb,
            ControlVerb::kPing);
}

TEST(ProtocolTest, ControlVerbsParse) {
  auto use = ParseRequestLine("use ecg");
  ASSERT_TRUE(use.ok());
  const auto& u = std::get<ControlRequest>(use.value());
  EXPECT_EQ(u.verb, ControlVerb::kUse);
  EXPECT_EQ(u.argument, "ecg");

  for (const auto& [line, verb] :
       std::vector<std::pair<std::string, ControlVerb>>{
           {"list", ControlVerb::kList},
           {"stats", ControlVerb::kStats},
           {"help", ControlVerb::kHelp},
           {"quit", ControlVerb::kQuit},
           {"exit", ControlVerb::kQuit},
           {"flush", ControlVerb::kFlush}}) {
    auto parsed = ParseRequestLine(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(std::get<ControlRequest>(parsed.value()).verb, verb) << line;
  }
}

// ------------------------------------- APPEND/FLUSH mutation verbs.

TEST(ProtocolTest, AppendRoundTrips) {
  // Wire-vs-direct parity at the grammar layer: the line a client
  // renders parses back into the identical mutation (%.17g values,
  // label included), so the server appends exactly what was sent.
  const AppendRequest original{{0.25, -1.5, 3e-7, 0.125}, -4};
  auto parsed = ParseRequestLine(RenderAppendLine(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* back = std::get_if<AppendRequest>(&parsed.value());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->values, original.values);
  EXPECT_EQ(back->label, original.label);

  // Label 0 is the default and omitted from the rendered line.
  const AppendRequest unlabeled{{1.0, 2.0}, 0};
  EXPECT_EQ(RenderAppendLine(unlabeled), "append 1,2");
  auto reparsed = ParseRequestLine("append 1,2");
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(std::get<AppendRequest>(reparsed.value()).label, 0);
  EXPECT_EQ(std::get<AppendRequest>(reparsed.value()).values,
            unlabeled.values);
}

TEST(ProtocolTest, AppendAndFlushRejectMalformedLines) {
  for (const std::string& line : {
           "append",               // no values
           "append ,",             // empty list
           "append 1,2,",          // trailing comma (truncated list)
           "append 1;2",           // wrong separator
           "append 1,2 x",         // non-numeric label
           "append 1,2 4294967296",  // label out of int range
           "append 1,2 3 extra",   // too many operands
           "append nan,0.5",       // non-finite values poison distances
           "append 0.5,-inf",
           "append 1e400,0.5",     // out of range: strtod gives HUGE_VAL
           "flush now",            // flush takes no operands
       }) {
    auto parsed = ParseRequestLine(line);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument) << line;
    EXPECT_FALSE(parsed.status().message().empty()) << line;
  }
}

TEST(ProtocolTest, MalformedInputIsRejectedWithMessages) {
  const std::vector<std::string> bad = {
      "",                        // empty
      "   ",                     // blank
      "frobnicate 1 2",          // unknown verb
      "q1",                      // missing operands
      "q1 8",                    // missing values
      "q1 eight 0.1,0.2",        // non-numeric length
      "q1 -3 0.1",               // negative length
      "q1 8 a,b,c",              // non-numeric values
      "q1 8 ,",                  // empty values
      "q1 8 0.1;0.2,0.3",        // trailing garbage inside an item
      "q1 8 0.1, 0.2,0.3",       // space split the list: extra token
      "q1 8 0.1,0.2,",           // trailing comma (truncated list)
      "q1 8 0.1,nan",            // non-finite value
      "q1k 3 8 0.1,0.2 extra",   // unconsumed trailing operand
      "q2 all 8 9",              // unconsumed trailing operand
      "q3 S 8 9",                // unconsumed trailing operand
      "refine 0.1 8 9",          // unconsumed trailing operand
      "ping now",                // control verb with an operand
      "list all",                // control verb with an operand
      "use a b",                 // control verb with two operands
      "q1k 0 8 0.1",             // k = 0
      "q1k many 8 0.1",          // non-numeric k
      "q1r nan..x 8 0.1",        // malformed threshold
      "q1r -0.5 8 0.1",          // negative threshold
      "q1r 0.2 8 0.1 exactly",   // unknown modifier
      "q2 all",                  // missing length
      "q2 first 8",              // non-numeric series
      "q3 XL",                   // unknown degree
      "refine 0.1",              // missing length
      "use",                     // missing dataset
      // Integers past 2^64-1: strtoull saturates them to a real id.
      "id=99999999999999999999999 q1 any 0.1,0.2",
      "cancel 99999999999999999999999",
      "q1k 99999999999999999999999 any 0.1,0.2",
  };
  for (const std::string& line : bad) {
    // With an attrs sink, so a bad attribute is judged on its own merits.
    RequestAttrs attrs;
    auto parsed = ParseRequestLine(line, &attrs);
    EXPECT_FALSE(parsed.ok()) << "accepted: '" << line << "'";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
      EXPECT_FALSE(parsed.status().message().empty()) << line;
    }
  }
}

// ----------------------------------------------------- reply blocks.

std::vector<std::string> SplitLines(const std::string& block) {
  std::vector<std::string> lines;
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ProtocolTest, ResponseBlockRoundTrips) {
  QueryResponse response;
  response.kind = QueryKind::kKSimilar;
  response.payload = MatchResult{
      {QueryMatch{{2, 3, 8}, 0.012345678901234567, 4, false},
       QueryMatch{{7, 0, 8}, 0.25, 1, true}}};
  response.stats.lengths_scanned = 1;
  response.stats.reps_compared = 12;
  response.latency_seconds = 0.000152;

  const std::string block = RenderResponse(response);
  EXPECT_EQ(block.substr(block.size() - 3), "\n.\n");

  auto parsed = ParseResponseBlock(SplitLines(block));
  ASSERT_TRUE(parsed.ok());
  const WireResponse& wire = parsed.value();
  EXPECT_TRUE(wire.ok);
  EXPECT_EQ(wire.kind, "KSimilar");
  EXPECT_EQ(wire.header.at("matches"), "2");
  EXPECT_EQ(wire.header.at("latency_us"), "152");
  ASSERT_EQ(wire.payload.size(), 3u);  // stats + 2 matches.

  const auto stats = ParseKeyValues(wire.payload[0]);
  EXPECT_EQ(stats.at("reps_compared"), "12");
  const auto match0 = ParseKeyValues(wire.payload[1]);
  EXPECT_EQ(match0.at("series"), "2");
  EXPECT_EQ(match0.at("bound"), "0");
  EXPECT_DOUBLE_EQ(std::stod(match0.at("distance")), 0.012345678901234567);
  const auto match1 = ParseKeyValues(wire.payload[2]);
  EXPECT_EQ(match1.at("bound"), "1");
}

// The wire's double format is printf's %.17g, byte for byte.
std::string Printf17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Appended(double v) {
  std::string out = "x=";
  AppendDouble(out, v);
  return out.substr(2);
}

TEST(ProtocolTest, AppendDoubleMatchesPrintf17g) {
  using limits = std::numeric_limits<double>;
  const double edge[] = {0.0,
                         -0.0,
                         limits::denorm_min(),
                         -limits::denorm_min(),
                         2.2250738585072009e-308,  // Largest subnormal.
                         limits::min(),
                         -limits::min(),
                         limits::max(),
                         limits::lowest(),
                         1e300,
                         -1e300,
                         1e-300,
                         -1e-300,
                         limits::infinity(),
                         -limits::infinity(),
                         1.0,
                         0.1,
                         0.05,
                         1e16,
                         1e17,
                         123456789012345678.0,
                         1e-5,
                         0.0001,
                         0.012345678901234567};
  for (const double v : edge) EXPECT_EQ(Appended(v), Printf17g(v)) << v;

  Rng rng(2024);
  for (int i = 0; i < 10000; ++i) {
    // Half arbitrary bit patterns (every exponent, subnormals included),
    // half values in the range the wire mostly carries.
    double v;
    if (i % 2 == 0) {
      const uint64_t bits = rng.Next();
      std::memcpy(&v, &bits, sizeof(v));
      if (std::isnan(v)) continue;
    } else {
      v = rng.UniformDouble(-1.0, 1.0);
    }
    ASSERT_EQ(Appended(v), Printf17g(v)) << "bit pattern of draw " << i;
  }
}

TEST(ProtocolTest, MatchLinesKeepTheirBytes) {
  QueryResponse response;
  response.kind = QueryKind::kRangeWithin;
  const QueryMatch matches[] = {
      {{0, 0, 1}, 0.0, 0, false},
      {{4294967295u, 4294967295u, 4294967295u}, 0.1, 4294967295u, true},
      {{12, 345, 128}, 0.012345678901234567, 77, false},
      {{3, 9, 16}, std::numeric_limits<double>::infinity(), 2, false},
  };
  MatchResult result;
  std::string expected;
  for (const QueryMatch& m : matches) {
    result.matches.push_back(m);
    expected += "match series=" + std::to_string(m.ref.series) +
                " start=" + std::to_string(m.ref.start) +
                " length=" + std::to_string(m.ref.length) +
                " distance=" + Printf17g(m.distance) +
                " group=" + std::to_string(m.group_id) +
                " bound=" + (m.distance_is_upper_bound ? "1" : "0") + "\n";
  }
  response.payload = result;
  const std::string block = RenderResponse(response);
  ASSERT_GT(block.size(), expected.size() + 2);
  EXPECT_EQ(block.substr(block.size() - 2 - expected.size(), expected.size()),
            expected);
  const std::string part =
      RenderPartBlock(QueryKind::kRangeWithin, 1, 1, 0.5, false, matches);
  EXPECT_EQ(part.substr(part.size() - 2 - expected.size(), expected.size()),
            expected);
}

TEST(ProtocolTest, SeasonalRecommendRefineBlocksRender) {
  QueryResponse seasonal;
  seasonal.kind = QueryKind::kSeasonal;
  seasonal.payload = SeasonalResult{{{{0, 4, 8}, {1, 8, 8}}, {{2, 0, 8}}}};
  const auto lines = SplitLines(RenderResponse(seasonal));
  EXPECT_EQ(lines[0].rfind("OK Seasonal groups=2", 0), 0u);
  EXPECT_EQ(lines[2], "group size=2 refs=0:4:8,1:8:8");
  EXPECT_EQ(lines[3], "group size=1 refs=2:0:8");

  QueryResponse recommend;
  recommend.kind = QueryKind::kRecommend;
  recommend.payload =
      RecommendResult{{Recommendation{SimilarityDegree::kStrict, 0.0, 0.05}}};
  const auto rec_lines = SplitLines(RenderResponse(recommend));
  const auto rec = ParseKeyValues(rec_lines[2]);
  EXPECT_EQ(rec.at("degree"), "S");
  EXPECT_DOUBLE_EQ(std::stod(rec.at("high")), 0.05);

  QueryResponse refine;
  refine.kind = QueryKind::kRefineThreshold;
  refine.payload = RefineResult{{RefineSummary{16, 10, 14}}};
  const auto ref_lines = SplitLines(RenderResponse(refine));
  const auto ref = ParseKeyValues(ref_lines[2]);
  EXPECT_EQ(ref.at("length"), "16");
  EXPECT_EQ(ref.at("before"), "10");
  EXPECT_EQ(ref.at("after"), "14");
}

TEST(ProtocolTest, ErrorBlocksCarryCodeAndMessage) {
  const std::string block =
      RenderError(Status::NotFound("length 7 was not constructed"));
  auto parsed = ParseResponseBlock(SplitLines(block));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().code, "NOT_FOUND");
  EXPECT_EQ(parsed.value().message, "length 7 was not constructed");

  const std::string shed = RenderErrorBlock(kOverloadedCode, "queue full");
  auto shed_parsed = ParseResponseBlock(SplitLines(shed));
  ASSERT_TRUE(shed_parsed.ok());
  EXPECT_EQ(shed_parsed.value().code, "OVERLOADED");

  // Newlines in messages cannot break framing.
  const std::string hostile =
      RenderErrorBlock("INVALID_ARGUMENT", "line one\nline two");
  EXPECT_EQ(SplitLines(hostile).size(), 2u);  // header + terminator only.
}

TEST(ProtocolTest, GreetingAnnouncesVersion) {
  EXPECT_EQ(Greeting(), "ONEX/8 ready\n");
  auto parsed = ParseResponseBlock(SplitLines(RenderHelp()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ok);
  EXPECT_EQ(parsed.value().kind, "Help");
  EXPECT_GT(parsed.value().payload.size(), 4u);
}

TEST(ProtocolTest, ParseResponseBlockRejectsGarbage) {
  EXPECT_FALSE(ParseResponseBlock({}).ok());
  EXPECT_FALSE(ParseResponseBlock({"HELLO world"}).ok());
  EXPECT_FALSE(ParseResponseBlock({""}).ok());
}

}  // namespace
}  // namespace server
}  // namespace onex
