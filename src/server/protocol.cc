#include "server/protocol.h"

#include <algorithm>
#include <charconv>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace onex {
namespace server {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string Dbl(double v) {
  std::string out;
  AppendDouble(out, v);
  return out;
}

void AppendUnsigned(std::string& out, uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string Csv(const std::vector<double>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    AppendDouble(out, values[i]);
  }
  return out;
}

std::optional<double> ParseDouble(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') return std::nullopt;
  return v;
}

std::optional<uint64_t> ParseUnsigned(const std::string& token) {
  if (token.empty() || !std::isdigit(static_cast<unsigned char>(token[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t v = std::strtoull(token.c_str(), &end, 10);
  // strtoull saturates at 2^64-1 on overflow; that value is a real id.
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

/// Signed integer (labels may be negative in some UCR sets). Range
/// checked: an out-of-int label must be rejected, not silently wrapped.
std::optional<int> ParseInt(const std::string& token) {
  if (token.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

Status Usage(const char* usage) {
  return Status::InvalidArgument(std::string("usage: ") + usage);
}

/// One-letter degree tokens of the q3 grammar.
const char* DegreeToken(SimilarityDegree degree) {
  switch (degree) {
    case SimilarityDegree::kStrict: return "S";
    case SimilarityDegree::kMedium: return "M";
    case SimilarityDegree::kLoose:  return "L";
  }
  return "M";
}

/// Strips '\n' so a multi-line message cannot break reply framing.
std::string OneLine(std::string message) {
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return message;
}

}  // namespace

void AppendDouble(std::string& out, double v) {
  // to_chars in `general` format at a given precision is specified as
  // printf's %.*g: the same bytes, without printf's locale and format
  // parsing. 24 characters is the longest, e.g. -2.2250738585072014e-308.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 17)
                      .ptr);
}

std::optional<std::vector<double>> ParseValuesCsv(const std::string& csv) {
  // A trailing comma usually means the list continued past a stray
  // space and got truncated by tokenization — reject rather than
  // answer a shorter query than the user wrote.
  if (!csv.empty() && csv.back() == ',') return std::nullopt;
  std::vector<double> values;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    // Reject trailing garbage too ("0.1;0.2" must not become 0.1):
    // silently dropping values would answer the wrong query.
    if (end == item.c_str() || *end != '\0') return std::nullopt;
    // "nan", "inf" and out-of-range literals such as "1e400" (strtod
    // gives HUGE_VAL) poison every distance they touch.
    if (!std::isfinite(v)) return std::nullopt;
    values.push_back(v);
  }
  if (values.empty()) return std::nullopt;
  return values;
}

std::optional<size_t> ParseLengthToken(const std::string& token) {
  const std::string t = Lower(token);
  if (t == "any" || t == "all") return size_t{0};
  const auto v = ParseUnsigned(token);
  if (!v.has_value()) return std::nullopt;
  return static_cast<size_t>(*v);
}

Result<Request> ParseRequestLine(const std::string& line,
                                 RequestAttrs* attrs) {
  auto t = Tokenize(line);
  if (t.empty()) return Status::InvalidArgument("empty request");

  // ---- v3 attribute prefix: key=value tokens before the verb. A verb
  // never contains '=', so the first '='-free token ends the prefix.
  RequestAttrs parsed_attrs;
  size_t verb_at = 0;
  while (verb_at < t.size() &&
         t[verb_at].find('=') != std::string::npos) {
    const std::string& token = t[verb_at];
    const size_t eq = token.find('=');
    const std::string key = Lower(token.substr(0, eq));
    const std::string value = token.substr(eq + 1);
    if (key == "id") {
      const auto id = ParseUnsigned(value);
      if (!id || *id == 0) {
        return Status::InvalidArgument("bad id '" + value +
                                       "' (a positive integer)");
      }
      parsed_attrs.id = *id;
    } else if (key == "deadline_ms") {
      const auto ms = ParseUnsigned(value);
      if (!ms) {
        return Status::InvalidArgument("bad deadline_ms '" + value + "'");
      }
      // Clamp: a budget past a year is "unbounded" in practice, and an
      // unclamped u64 would overflow the chrono arithmetic downstream
      // (now() + milliseconds) into a deadline in the past.
      constexpr uint64_t kMaxDeadlineMs = 365ull * 24 * 3600 * 1000;
      parsed_attrs.deadline_ms = std::min(*ms, kMaxDeadlineMs);
    } else if (key == "progress") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("bad progress '" + value +
                                       "' (0 or 1)");
      }
      parsed_attrs.progress = value == "1";
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("bad trace '" + value +
                                       "' (0 or 1)");
      }
      parsed_attrs.trace = value == "1";
    } else if (key == "dataset") {
      // v8 routing: per-query dataset (or, via onex_router, shard-set)
      // override. Any non-empty token is accepted here; whether a glob
      // is honored is the endpoint's call (a plain server rejects it).
      if (value.empty()) {
        return Status::InvalidArgument("bad dataset '' (a dataset name or "
                                       "shard-set like sales-*)");
      }
      parsed_attrs.dataset = value;
    } else {
      return Status::InvalidArgument(
          "unknown request attribute '" + key +
          "' (id, deadline_ms, progress, trace, dataset)");
    }
    ++verb_at;
  }
  if (verb_at == t.size()) {
    return Status::InvalidArgument("request has attributes but no verb");
  }
  if (parsed_attrs.progress && parsed_attrs.id == 0) {
    return Status::InvalidArgument("progress=1 needs id=<n>");
  }
  // Strip the prefix whenever one was WRITTEN — `deadline_ms=0` or
  // `progress=0` are valid (no-op) attributes, not part of the verb.
  if (verb_at > 0) {
    if (attrs == nullptr) {
      return Status::InvalidArgument(
          "request attributes are not supported on this endpoint");
    }
    t.erase(t.begin(), t.begin() + static_cast<ptrdiff_t>(verb_at));
  }
  if (attrs != nullptr) *attrs = parsed_attrs;

  const std::string verb = Lower(t[0]);
  if (verb_at > 0 && verb != "q1" && verb != "q1k" && verb != "q1r" &&
      verb != "q2" && verb != "q3" && verb != "refine") {
    return Status::InvalidArgument("request attributes only apply to query "
                                   "verbs (q1/q1k/q1r/q2/q3/refine)");
  }

  // ---- session control. Extra operands are rejected everywhere: a
  // line that doesn't parse whole must not silently answer something
  // shorter than what the client wrote.
  if (verb == "use") {
    if (t.size() != 2) return Usage("use <dataset>");
    return Request(ControlRequest{ControlVerb::kUse, t[1]});
  }
  if (verb == "cancel") {
    if (t.size() != 2) return Usage("cancel <id> | cancel <session>/<id>");
    // v7 admin form: `<session>/<id>` targets another session's query.
    const size_t slash = t[1].find('/');
    if (slash != std::string::npos) {
      const std::string session = t[1].substr(0, slash);
      const std::string id = t[1].substr(slash + 1);
      const auto session_no = ParseUnsigned(session);
      const auto request_id = ParseUnsigned(id);
      if (!session_no || *session_no == 0 || !request_id ||
          *request_id == 0) {
        return Status::InvalidArgument(
            "bad cancel target '" + t[1] +
            "' (expected <session>/<id>, two positive integers)");
      }
      return Request(ControlRequest{ControlVerb::kCancel, t[1]});
    }
    const auto id = ParseUnsigned(t[1]);
    if (!id || *id == 0) {
      return Status::InvalidArgument("bad id '" + t[1] +
                                     "' (a positive integer)");
    }
    return Request(ControlRequest{ControlVerb::kCancel, t[1]});
  }
  if (verb == "fetch") {
    if (t.size() != 3) return Usage("fetch <dataset> <file>");
    // The artifact name must be a plain manifest-relative file name:
    // anything with a path separator could walk out of the data
    // directory, and that hole is closed at parse time, not by each
    // server's handler remembering to check.
    if (t[2].find('/') != std::string::npos ||
        t[2].find('\\') != std::string::npos || t[2] == "." ||
        t[2] == "..") {
      return Status::InvalidArgument(
          "bad artifact '" + t[2] +
          "' (a plain file name from the manifest, no paths)");
    }
    return Request(ControlRequest{ControlVerb::kFetch, t[1], t[2]});
  }
  if (verb == "list" || verb == "stats" || verb == "metrics" ||
      verb == "inspect" || verb == "health" || verb == "manifest" ||
      verb == "ping" || verb == "help" || verb == "quit" ||
      verb == "exit" || verb == "flush") {
    if (t.size() != 1) {
      return Status::InvalidArgument("'" + verb + "' takes no operands");
    }
    if (verb == "list") return Request(ControlRequest{ControlVerb::kList, ""});
    if (verb == "stats") {
      return Request(ControlRequest{ControlVerb::kStats, ""});
    }
    if (verb == "metrics") {
      return Request(ControlRequest{ControlVerb::kMetrics, ""});
    }
    if (verb == "inspect") {
      return Request(ControlRequest{ControlVerb::kInspect, ""});
    }
    if (verb == "health") {
      return Request(ControlRequest{ControlVerb::kHealth, ""});
    }
    if (verb == "manifest") {
      return Request(ControlRequest{ControlVerb::kManifest, ""});
    }
    if (verb == "ping") return Request(ControlRequest{ControlVerb::kPing, ""});
    if (verb == "help") return Request(ControlRequest{ControlVerb::kHelp, ""});
    if (verb == "flush") {
      return Request(ControlRequest{ControlVerb::kFlush, ""});
    }
    return Request(ControlRequest{ControlVerb::kQuit, ""});
  }

  // ---- mutations.
  if (verb == "append") {
    if (t.size() < 2 || t.size() > 3) {
      return Usage("append <v1,v2,...> [label]");
    }
    const auto values = ParseValuesCsv(t[1]);
    if (!values) return Status::InvalidArgument("bad value list");
    AppendRequest request{*values, 0};
    if (t.size() > 2) {
      const auto label = ParseInt(t[2]);
      if (!label) {
        return Status::InvalidArgument("bad label '" + t[2] + "'");
      }
      request.label = *label;
    }
    return Request(std::move(request));
  }

  // ---- queries (the CLI's historical grammar, now shared).
  if (verb == "q1") {
    if (t.size() != 3) return Usage("q1 <len|any> <v1,v2,...>");
    const auto length = ParseLengthToken(t[1]);
    if (!length) return Status::InvalidArgument("bad length '" + t[1] + "'");
    const auto values = ParseValuesCsv(t[2]);
    if (!values) return Status::InvalidArgument("bad value list");
    return Request(QueryRequest(BestMatchRequest{*values, *length}));
  }
  if (verb == "q1k") {
    if (t.size() != 4) return Usage("q1k <k> <len|any> <v1,v2,...>");
    const auto k = ParseUnsigned(t[1]);
    if (!k || *k == 0) return Status::InvalidArgument("bad k '" + t[1] + "'");
    const auto length = ParseLengthToken(t[2]);
    if (!length) return Status::InvalidArgument("bad length '" + t[2] + "'");
    const auto values = ParseValuesCsv(t[3]);
    if (!values) return Status::InvalidArgument("bad value list");
    return Request(QueryRequest(
        KSimilarRequest{*values, static_cast<size_t>(*k), *length}));
  }
  if (verb == "q1r") {
    if (t.size() < 4 || t.size() > 5) {
      return Usage("q1r <st> <len|any> <v1,v2,...> [bound]");
    }
    const auto st = ParseDouble(t[1]);
    if (!st || *st < 0.0) {
      return Status::InvalidArgument("bad threshold '" + t[1] + "'");
    }
    const auto length = ParseLengthToken(t[2]);
    if (!length) return Status::InvalidArgument("bad length '" + t[2] + "'");
    const auto values = ParseValuesCsv(t[3]);
    if (!values) return Status::InvalidArgument("bad value list");
    bool exact = true;
    if (t.size() > 4) {
      if (Lower(t[4]) != "bound") {
        return Status::InvalidArgument("bad modifier '" + t[4] +
                                       "' (expected 'bound')");
      }
      exact = false;
    }
    return Request(QueryRequest(RangeWithinRequest{*values, *st, *length,
                                                   exact}));
  }
  if (verb == "q2") {
    if (t.size() != 3) return Usage("q2 <series|all> <len>");
    SeasonalRequest request;
    const auto length = ParseUnsigned(t[2]);
    if (!length) return Status::InvalidArgument("bad length '" + t[2] + "'");
    request.length = static_cast<size_t>(*length);
    if (Lower(t[1]) != "all") {
      const auto series = ParseUnsigned(t[1]);
      if (!series) {
        return Status::InvalidArgument("bad series '" + t[1] + "'");
      }
      request.series_id = static_cast<uint32_t>(*series);
    }
    return Request(QueryRequest(request));
  }
  if (verb == "q3") {
    if (t.size() > 3) return Usage("q3 <S|M|L|any> [len]");
    RecommendRequest request;
    if (t.size() > 1) {
      const std::string degree = Lower(t[1]);
      if (degree != "any" && degree != "all" && degree != "*") {
        if (degree != "s" && degree != "m" && degree != "l") {
          return Status::InvalidArgument("bad degree '" + t[1] +
                                         "' (expected S, M, L, or any)");
        }
        request.degree = ParseDegree(t[1]);
      }
    }
    if (t.size() > 2) {
      const auto length = ParseLengthToken(t[2]);
      if (!length) return Status::InvalidArgument("bad length '" + t[2] + "'");
      request.length = *length;
    }
    return Request(QueryRequest(request));
  }
  if (verb == "refine") {
    if (t.size() != 3) return Usage("refine <st'> <len|all>");
    const auto st = ParseDouble(t[1]);
    if (!st) return Status::InvalidArgument("bad threshold '" + t[1] + "'");
    const auto length = ParseLengthToken(t[2]);
    if (!length) return Status::InvalidArgument("bad length '" + t[2] + "'");
    return Request(QueryRequest(RefineThresholdRequest{*st, *length}));
  }

  return Status::InvalidArgument("unknown verb '" + t[0] + "' — try 'help'");
}

std::string RenderRequestLine(const QueryRequest& request) {
  std::string line;
  std::visit(
      [&](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, BestMatchRequest>) {
          line = "q1 " +
                 (req.length == 0 ? std::string("any")
                                  : std::to_string(req.length)) +
                 " " + Csv(req.query);
        } else if constexpr (std::is_same_v<T, KSimilarRequest>) {
          line = "q1k " + std::to_string(req.k) + " " +
                 (req.length == 0 ? std::string("any")
                                  : std::to_string(req.length)) +
                 " " + Csv(req.query);
        } else if constexpr (std::is_same_v<T, RangeWithinRequest>) {
          line = "q1r " + Dbl(req.st) + " " +
                 (req.length == 0 ? std::string("any")
                                  : std::to_string(req.length)) +
                 " " + Csv(req.query);
          if (!req.exact_distances) line += " bound";
        } else if constexpr (std::is_same_v<T, SeasonalRequest>) {
          line = "q2 " +
                 (req.series_id.has_value() ? std::to_string(*req.series_id)
                                            : std::string("all")) +
                 " " + std::to_string(req.length);
        } else if constexpr (std::is_same_v<T, RecommendRequest>) {
          line = std::string("q3 ") +
                 (req.degree.has_value() ? DegreeToken(*req.degree) : "any") +
                 " " +
                 (req.length == 0 ? std::string("any")
                                  : std::to_string(req.length));
        } else if constexpr (std::is_same_v<T, RefineThresholdRequest>) {
          line = "refine " + Dbl(req.st_prime) + " " +
                 (req.length == 0 ? std::string("all")
                                  : std::to_string(req.length));
        }
      },
      request);
  return line;
}

std::string RenderRequestLine(const QueryRequest& request,
                              const RequestAttrs& attrs) {
  std::string prefix;
  if (attrs.id != 0) prefix += "id=" + std::to_string(attrs.id) + " ";
  if (attrs.deadline_ms != 0) {
    prefix += "deadline_ms=" + std::to_string(attrs.deadline_ms) + " ";
  }
  if (attrs.progress) prefix += "progress=1 ";
  if (attrs.trace) prefix += "trace=1 ";
  if (!attrs.dataset.empty()) prefix += "dataset=" + attrs.dataset + " ";
  return prefix + RenderRequestLine(request);
}

std::string RenderAppendLine(const AppendRequest& request) {
  std::string line = "append " + Csv(request.values);
  if (request.label != 0) line += " " + std::to_string(request.label);
  return line;
}

std::string RenderCancelLine(uint64_t id) {
  return "cancel " + std::to_string(id);
}

namespace {

// Payload-line renderers, shared verbatim by final OK blocks and PART
// frames: a client renders partial and final rows with one code path
// because the bytes are the same.

// Appended in place: a range answer renders tens of thousands of these
// rows. A typical row is about this long, enough to reserve by.
constexpr size_t kMatchLineBytes = 88;

void AppendMatchLine(std::string& out, const QueryMatch& m) {
  out += "match series=";
  AppendUnsigned(out, m.ref.series);
  out += " start=";
  AppendUnsigned(out, m.ref.start);
  out += " length=";
  AppendUnsigned(out, m.ref.length);
  out += " distance=";
  AppendDouble(out, m.distance);
  out += " group=";
  AppendUnsigned(out, m.group_id);
  out += m.distance_is_upper_bound ? " bound=1\n" : " bound=0\n";
}

std::string GroupLine(const std::vector<SubsequenceRef>& group) {
  std::string out = "group size=" + std::to_string(group.size()) + " refs=";
  for (size_t i = 0; i < group.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(group[i].series) + ":" +
           std::to_string(group[i].start) + ":" +
           std::to_string(group[i].length);
  }
  out += "\n";
  return out;
}

std::string RecommendLine(const Recommendation& rec) {
  return std::string("recommend degree=") + DegreeToken(rec.degree) +
         " low=" + Dbl(rec.st_low) + " high=" + Dbl(rec.st_high) + "\n";
}

std::string RefineLine(const RefineSummary& r) {
  return "refine length=" + std::to_string(r.length) +
         " before=" + std::to_string(r.groups_before) +
         " after=" + std::to_string(r.groups_after) + "\n";
}

/// The shared `id= seq= frac= snapshot= <count_key>=<n>` tail of every
/// PART header line.
std::string PartHeaderTail(uint64_t id, uint64_t seq, double work_fraction,
                           bool snapshot, const char* count_key,
                           size_t count) {
  char frac[16];
  std::snprintf(frac, sizeof(frac), "%.3f", work_fraction);
  return " id=" + std::to_string(id) + " seq=" + std::to_string(seq) +
         " frac=" + frac + " snapshot=" + (snapshot ? "1" : "0") + " " +
         count_key + "=" + std::to_string(count) + "\n";
}

}  // namespace

std::string RenderResponse(const QueryResponse& response, uint64_t id,
                           bool trace) {
  std::string out = "OK ";
  out += ToString(response.kind);
  if (id != 0) out += " id=" + std::to_string(id);
  // Header count + payload lines follow the typed payload; the visitor
  // is exhaustive by construction, so a new payload shape cannot ship
  // without a wire rendering.
  response.Visit(
      [&](const MatchResult& r) {
        out += " matches=" + std::to_string(r.matches.size());
      },
      [&](const SeasonalResult& r) {
        out += " groups=" + std::to_string(r.groups.size());
      },
      [&](const RecommendResult& r) {
        out += " rows=" + std::to_string(r.rows.size());
      },
      [&](const RefineResult& r) {
        out += " rows=" + std::to_string(r.refinements.size());
      });
  out += " latency_us=" +
         std::to_string(
             static_cast<long long>(std::llround(response.latency_seconds *
                                                 1e6)));
  if (response.partial) {
    out += std::string(" partial=1 interrupt=") + WireCode(response.interrupt);
  }
  out += "\n";

  const QueryStats& s = response.stats;
  char stats_line[192];
  std::snprintf(stats_line, sizeof(stats_line),
                "stats lengths_scanned=%" PRIu64 " reps_compared=%" PRIu64
                " reps_pruned=%" PRIu64 " members_compared=%" PRIu64
                " lemma2_admitted=%" PRIu64 "\n",
                s.lengths_scanned, s.reps_compared, s.reps_pruned,
                s.members_compared, s.members_admitted_by_lemma2);
  out += stats_line;

  if (trace) {
    // v5 `trace=1` rendering. Two lines, keys stable: stage timings in
    // integer microseconds, then the pruning cascade with the invariant
    // seen == kim_pruned + keogh_pruned + dtw_evaluated (dtw_evaluated
    // folds early-abandoned and completed DTWs together; the abandoned
    // share is broken out separately).
    const CascadeStats& c = s.cascade;
    const uint64_t evaluated = c.dtw_abandoned + c.dtw_completed;
    const double pruning_ratio =
        c.candidates == 0
            ? 0.0
            : 1.0 - static_cast<double>(evaluated) /
                        static_cast<double>(c.candidates);
    auto us = [](double seconds) {
      return static_cast<long long>(std::llround(seconds * 1e6));
    };
    char trace_line[256];
    std::snprintf(trace_line, sizeof(trace_line),
                  "trace stage queue_wait_us=%lld rep_scan_us=%lld"
                  " member_scan_us=%lld knn_us=%lld refine_us=%lld"
                  " exec_us=%lld\n",
                  us(s.queue_wait_seconds), us(s.rep_scan_seconds),
                  us(s.member_scan_seconds), us(s.knn_seconds),
                  us(s.refine_seconds), us(response.latency_seconds));
    out += trace_line;
    std::snprintf(trace_line, sizeof(trace_line),
                  "trace cascade seen=%" PRIu64 " kim_pruned=%" PRIu64
                  " keogh_pruned=%" PRIu64 " dtw_evaluated=%" PRIu64
                  " early_abandoned=%" PRIu64 " pruning_ratio=%.4f\n",
                  c.candidates, c.pruned_kim, c.pruned_keogh, evaluated,
                  c.dtw_abandoned, pruning_ratio);
    out += trace_line;
  }

  response.Visit(
      [&](const MatchResult& r) {
        out.reserve(out.size() + r.matches.size() * kMatchLineBytes);
        for (const QueryMatch& m : r.matches) AppendMatchLine(out, m);
      },
      [&](const SeasonalResult& r) {
        for (const auto& group : r.groups) out += GroupLine(group);
      },
      [&](const RecommendResult& r) {
        for (const Recommendation& rec : r.rows) out += RecommendLine(rec);
      },
      [&](const RefineResult& r) {
        for (const RefineSummary& summary : r.refinements) {
          out += RefineLine(summary);
        }
      });
  out += ".\n";
  return out;
}

std::string RenderPartBlock(QueryKind kind, uint64_t id, uint64_t seq,
                            double work_fraction, bool snapshot,
                            std::span<const QueryMatch> matches) {
  std::string out = std::string("PART ") + ToString(kind) +
                    PartHeaderTail(id, seq, work_fraction, snapshot,
                                   "matches", matches.size());
  for (const QueryMatch& m : matches) AppendMatchLine(out, m);
  out += ".\n";
  return out;
}

std::string RenderPartBlock(uint64_t id, uint64_t seq, double work_fraction,
                            bool snapshot,
                            std::span<const std::vector<SubsequenceRef>>
                                groups) {
  std::string out = std::string("PART ") + kPartGroupToken +
                    PartHeaderTail(id, seq, work_fraction, snapshot,
                                   "groups", groups.size());
  for (const auto& group : groups) out += GroupLine(group);
  out += ".\n";
  return out;
}

std::string RenderPartBlock(uint64_t id, uint64_t seq, double work_fraction,
                            bool snapshot,
                            std::span<const Recommendation> rows) {
  std::string out = std::string("PART ") + kPartRecToken +
                    PartHeaderTail(id, seq, work_fraction, snapshot, "rows",
                                   rows.size());
  for (const Recommendation& rec : rows) out += RecommendLine(rec);
  out += ".\n";
  return out;
}

std::string RenderPartBlock(QueryKind kind, uint64_t id, uint64_t seq,
                            const ProgressEvent& event) {
  return std::visit(
      Overloaded{
          [&](const MatchProgress& p) {
            return RenderPartBlock(kind, id, seq, event.work_fraction,
                                   event.snapshot, p.matches);
          },
          [&](const GroupProgress& p) {
            return RenderPartBlock(id, seq, event.work_fraction,
                                   event.snapshot, p.groups);
          },
          [&](const RecommendProgress& p) {
            return RenderPartBlock(id, seq, event.work_fraction,
                                   event.snapshot, p.rows);
          },
      },
      event.payload);
}

const char* WireCode(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:              return "OK";
    case Status::Code::kInvalidArgument: return "INVALID_ARGUMENT";
    case Status::Code::kNotFound:        return "NOT_FOUND";
    case Status::Code::kIOError:         return "IO_ERROR";
    case Status::Code::kCorruption:      return "CORRUPTION";
    case Status::Code::kOutOfRange:      return "OUT_OF_RANGE";
    case Status::Code::kNotSupported:    return "NOT_SUPPORTED";
    case Status::Code::kCancelled:       return "CANCELLED";
    case Status::Code::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Status::Code::kResourceExhausted: return "RESOURCE_EXHAUSTED";
  }
  return "UNKNOWN";
}

std::string RenderErrorBlock(const std::string& code,
                             const std::string& message, uint64_t id) {
  std::string out = "ERR " + code;
  if (id != 0) out += " id=" + std::to_string(id);
  if (!message.empty()) out += " " + OneLine(message);
  out += "\n.\n";
  return out;
}

std::string RenderError(const Status& status, uint64_t id) {
  return RenderErrorBlock(WireCode(status.code()), status.message(), id);
}

std::string Greeting() {
  return "ONEX/" + std::to_string(kWireVersion) + " ready\n";
}

std::string RenderHelp() {
  return
      "OK Help\n"
      "help q1 <len|any> <v1,v2,...>          best match\n"
      "help q1k <k> <len|any> <v1,v2,...>     k most similar\n"
      "help q1r <st> <len|any> <vals> [bound] all within st\n"
      "help q2 <series|all> <len>             seasonal similarity\n"
      "help q3 <S|M|L|any> [len]              threshold recommendation\n"
      "help refine <st'> <len|all>            refine similarity threshold\n"
      "help append <v1,v2,...> [label]        append series (WAL'd when durable)\n"
      "help flush                             checkpoint the bound dataset\n"
      "help use <dataset> / list              select / list datasets\n"
      "help stats / ping / quit               server metrics, liveness\n"
      "help metrics                           Prometheus text exposition (v5)\n"
      "help inspect                            live in-flight query table (v6)\n"
      "help health                             liveness/readiness probe (v6)\n"
      "help cancel <id>                       abort the in-flight query <id>\n"
      "help id=<n> deadline_ms=<n> progress=1 query attribute prefix (v3):\n"
      "help    tag/multiplex, bound, and stream partial results, e.g.\n"
      "help    id=7 deadline_ms=250 progress=1 q1r 0.3 any 0.1,0.5,0.9\n"
      "help    (v4: q2 streams PART GROUP, q3 streams PART REC frames)\n"
      "help trace=1                           append stage timings and pruning-\n"
      "help    cascade counters (TRACE lines) to the final response (v5)\n"
      "help cancel <session>/<id>             admin: cancel another session's\n"
      "help    query (session numbers from INSPECT) (v7)\n"
      "help manifest                          consistent-cut artifact manifest (v7)\n"
      "help fetch <dataset> <file>            stream one manifest artifact as\n"
      "help    CRC-framed binary chunks (v7)\n"
      "help dataset=<name>                    per-query dataset override (v8);\n"
      "help    through onex_router a shard-set like dataset=sales-* scatters\n"
      "help    the query and merges the answers\n"
      ".\n";
}

std::string RenderManifestBlock(const storage::Manifest& manifest) {
  std::string out =
      "OK Manifest version=" + std::to_string(manifest.version) +
      " created_unix_s=" + std::to_string(manifest.created_unix_s) +
      " datasets=" + std::to_string(manifest.entries.size()) + "\n";
  for (const storage::ManifestEntry& entry : manifest.entries) {
    out += "dataset name=" + entry.name +
           " series=" + std::to_string(entry.series) +
           " live_series=" + std::to_string(entry.live_series) +
           " base=" + entry.base_file +
           " base_bytes=" + std::to_string(entry.base_bytes) +
           " base_crc32=" + std::to_string(entry.base_crc) +
           " wal=" + entry.wal_file +
           " wal_bytes=" + std::to_string(entry.wal_bytes) +
           " deltas=" + std::to_string(entry.deltas.size()) + "\n";
    for (size_t k = 0; k < entry.deltas.size(); ++k) {
      const auto& d = entry.deltas[k];
      out += "delta dataset=" + entry.name +
             " k=" + std::to_string(k + 1) + " file=" + d.file +
             " bytes=" + std::to_string(d.bytes) +
             " crc32=" + std::to_string(d.crc) + "\n";
    }
  }
  out += ".\n";
  return out;
}

Result<storage::Manifest> ParseManifestPayload(
    const std::vector<std::string>& payload,
    const std::map<std::string, std::string>& header) {
  // Every lookup is strict: a follower that guessed a missing size or
  // CRC would fetch artifacts it cannot verify.
  auto need = [](const std::map<std::string, std::string>& kv,
                 const char* key) -> Result<std::string> {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      return Status::InvalidArgument(std::string("manifest line misses '") +
                                     key + "='");
    }
    return it->second;
  };
  auto need_u64 = [&need](const std::map<std::string, std::string>& kv,
                          const char* key) -> Result<uint64_t> {
    auto raw = need(kv, key);
    if (!raw.ok()) return raw.status();
    const auto v = ParseUnsigned(raw.value());
    if (!v) {
      return Status::InvalidArgument(std::string("bad manifest ") + key +
                                     " '" + raw.value() + "'");
    }
    return *v;
  };

  storage::Manifest manifest;
  auto version = need_u64(header, "version");
  if (!version.ok()) return version.status();
  if (version.value() != storage::kManifestFormatVersion) {
    return Status::InvalidArgument(
        "unsupported manifest version " + std::to_string(version.value()));
  }
  manifest.version = static_cast<uint32_t>(version.value());
  auto created = need_u64(header, "created_unix_s");
  if (!created.ok()) return created.status();
  manifest.created_unix_s = created.value();

  for (const std::string& line : payload) {
    const auto kv = ParseKeyValues(line);
    if (line.rfind("dataset ", 0) == 0) {
      storage::ManifestEntry entry;
      auto name = need(kv, "name");
      if (!name.ok()) return name.status();
      entry.name = name.value();
      auto series = need_u64(kv, "series");
      if (!series.ok()) return series.status();
      entry.series = series.value();
      auto live = need_u64(kv, "live_series");
      if (!live.ok()) return live.status();
      entry.live_series = live.value();
      auto base = need(kv, "base");
      if (!base.ok()) return base.status();
      entry.base_file = base.value();
      auto base_bytes = need_u64(kv, "base_bytes");
      if (!base_bytes.ok()) return base_bytes.status();
      entry.base_bytes = base_bytes.value();
      auto base_crc = need_u64(kv, "base_crc32");
      if (!base_crc.ok()) return base_crc.status();
      entry.base_crc = static_cast<uint32_t>(base_crc.value());
      auto wal = need(kv, "wal");
      if (!wal.ok()) return wal.status();
      entry.wal_file = wal.value();
      auto wal_bytes = need_u64(kv, "wal_bytes");
      if (!wal_bytes.ok()) return wal_bytes.status();
      entry.wal_bytes = wal_bytes.value();
      manifest.entries.push_back(std::move(entry));
    } else if (line.rfind("delta ", 0) == 0) {
      auto dataset = need(kv, "dataset");
      if (!dataset.ok()) return dataset.status();
      storage::ManifestEntry* owner = nullptr;
      for (auto& entry : manifest.entries) {
        if (entry.name == dataset.value()) owner = &entry;
      }
      if (owner == nullptr) {
        return Status::InvalidArgument("delta line for unknown dataset '" +
                                       dataset.value() + "'");
      }
      storage::ManifestEntry::DeltaRef ref;
      auto file = need(kv, "file");
      if (!file.ok()) return file.status();
      ref.file = file.value();
      auto bytes = need_u64(kv, "bytes");
      if (!bytes.ok()) return bytes.status();
      ref.bytes = bytes.value();
      auto crc = need_u64(kv, "crc32");
      if (!crc.ok()) return crc.status();
      ref.crc = static_cast<uint32_t>(crc.value());
      auto k = need_u64(kv, "k");
      if (!k.ok()) return k.status();
      if (k.value() != owner->deltas.size() + 1) {
        return Status::InvalidArgument(
            "delta chain for '" + owner->name + "' is out of order (got k=" +
            std::to_string(k.value()) + ", expected " +
            std::to_string(owner->deltas.size() + 1) + ")");
      }
      owner->deltas.push_back(std::move(ref));
    } else {
      return Status::InvalidArgument("unknown manifest payload line: '" +
                                     line + "'");
    }
  }
  return manifest;
}

std::map<std::string, std::string> ParseKeyValues(const std::string& line) {
  std::map<std::string, std::string> fields;
  for (const std::string& token : Tokenize(line)) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return fields;
}

uint64_t WireResponse::id() const {
  const auto it = header.find("id");
  if (it == header.end()) return 0;
  char* end = nullptr;
  const uint64_t v = std::strtoull(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : 0;
}

bool WireResponse::partial() const {
  const auto it = header.find("partial");
  return it != header.end() && it->second == "1";
}

PayloadShape WireResponse::part_shape() const {
  if (kind == kPartGroupToken) return PayloadShape::kGroup;
  if (kind == kPartRecToken) return PayloadShape::kRecommend;
  return PayloadShape::kMatch;
}

Result<WireResponse> ParseResponseBlock(
    const std::vector<std::string>& lines) {
  if (lines.empty()) return Status::InvalidArgument("empty reply block");
  WireResponse response;
  const std::string& header = lines[0];
  response.header_line = header;
  const auto tokens = Tokenize(header);
  if (tokens.empty()) return Status::InvalidArgument("blank reply header");
  if (tokens[0] == "OK" || tokens[0] == "PART") {
    response.ok = true;
    response.part = tokens[0][0] == 'P';
    if (tokens.size() > 1) response.kind = tokens[1];
    response.header = ParseKeyValues(header);
  } else if (tokens[0] == "ERR") {
    response.ok = false;
    if (tokens.size() > 1) {
      response.code = tokens[1];
      // A v3 tagged error carries `id=<n>` between code and message;
      // lift it into the header map and keep it out of the message.
      size_t message_at = header.find(tokens[1]) + tokens[1].size();
      if (tokens.size() > 2 && tokens[2].rfind("id=", 0) == 0) {
        response.header = ParseKeyValues(tokens[2]);
        message_at = header.find(tokens[2], message_at) + tokens[2].size();
      }
      if (message_at < header.size()) {
        response.message = header.substr(message_at + 1);
      }
    }
  } else {
    return Status::InvalidArgument(
        "reply header is none of OK/PART/ERR: '" + header + "'");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i] == ".") break;
    response.payload.push_back(lines[i]);
  }
  return response;
}

}  // namespace server
}  // namespace onex
