// Copyright 2026 The ONEX Reproduction Authors.
// The ONEX wire protocol: one newline-delimited text grammar shared by
// the TCP server (src/server/server.h) and the interactive CLI
// (examples/onex_cli.cpp), so a query typed into the shell is byte-for-
// byte the query a remote client sends. This module is pure grammar —
// parsing request lines into the Engine's typed QueryRequest, rendering
// QueryResponse / errors back into reply blocks — and does no I/O.
//
// Framing. Each request is ONE line. Each reply is a BLOCK: a header
// line starting with "OK" or "ERR", zero or more payload lines, and a
// terminator line containing only ".". Payload lines always begin with
// a keyword (match/group/recommend/refine/stats/dataset/...), never
// with ".", so the terminator is unambiguous. On connect the server
// greets with "ONEX/<version> ready".
//
// Request grammar (verbs are case-insensitive):
//   q1 <len|any> <v1,v2,...>            Q1 best match
//   q1k <k> <len|any> <v1,v2,...>       Q1 k most similar
//   q1r <st> <len|any> <v1,v2,...> [bound]   Q1 range; "bound" returns
//                                       Lemma-2 upper bounds, default
//                                       recomputes exact distances
//   q2 <series|all> <len>               Q2 seasonal similarity
//   q3 <S|M|L|any> [len]                Q3 threshold recommendation
//   refine <st'> <len|all>              Algorithm 2.C refinement
//   append <v1,v2,...> [label]          append a series to the bound
//                                       dataset (durable when the
//                                       server runs with --durable:
//                                       WAL'd before the OK)
//   flush                               force the bound dataset to
//                                       stable storage (checkpoint /
//                                       snapshot save)
//   use <dataset>                       bind the session to a dataset
//   list                                catalog contents
//   stats                               server metrics (per-kind
//                                       counters + latency percentiles)
//   metrics                             v5: every counter / histogram /
//                                       gauge in Prometheus text
//                                       exposition format
//   cancel <id>                         v3: cancel the in-flight query
//                                       tagged `id` on this session
//   cancel <session>/<id>               v7: admin form — cancel the
//                                       query tagged `id` on ANOTHER
//                                       session (session numbers come
//                                       from INSPECT); ERR NOT_FOUND
//                                       when no such in-flight query
//   manifest                            v7: the leader's consistent-cut
//                                       manifest (per-dataset artifact
//                                       set + CRCs) in line form
//   fetch <dataset> <file>              v7: stream one manifest-named
//                                       artifact (base / delta / WAL)
//                                       as binary chunks — see below
//   ping / help / quit
//
// Protocol v3 — interactive query control. Any QUERY line may be
// prefixed with `key=value` attribute tokens (everything before the
// first token without '='):
//   id=<n>          tag the request; the session goes MULTIPLEXED for
//                   it: the reply block header carries `id=<n>` and may
//                   arrive out of order relative to other tagged
//                   requests (untagged requests keep strict v2
//                   request/reply ordering)
//   deadline_ms=<n> server aborts the query once the budget elapses and
//                   returns what it confirmed, header-flagged
//                   `partial=1 interrupt=DEADLINE_EXCEEDED`
//   progress=1      (needs id=) stream confirmed partial results early
//                   as PART blocks while the query still runs. PART
//                   frames are TYPED per payload shape (protocol v4):
//                     match-shaped (q1/q1k/q1r, v3-identical bytes):
//                       PART <Kind> id=<n> seq=<k> frac=<f>
//                            snapshot=<0|1> matches=<m>
//                       match ...
//                       .
//                     group-shaped (q2) — the PART GROUP variant:
//                       PART GROUP id=<n> seq=<k> frac=<f>
//                            snapshot=<0|1> groups=<g>
//                       group size=... refs=...
//                       .
//                     recommendation-shaped (q3) — the PART REC variant:
//                       PART REC id=<n> seq=<k> frac=<f> snapshot=<0|1>
//                            rows=<r>
//                       recommend degree=... low=... high=...
//                       .
//                   snapshot=1 means the frame REPLACES earlier frames
//                   (best-so-far queries); 0 means it extends them.
//                   Payload lines are byte-identical to the same rows
//                   in a final OK block, so a client renders partial
//                   and final results with one code path.
//   trace=1         v5: the final OK block carries `trace ...` payload
//                   lines — per-stage timings and the pruning-cascade
//                   breakdown of exactly this query (see
//                   RenderResponse). Absent the attribute, the block is
//                   byte-identical to v4.
// Example:  id=7 deadline_ms=250 progress=1 q1r 0.3 any 0.1,0.5,0.9
// A v2 client is unaffected: lines without attributes parse and answer
// exactly as before, and PART frames are only sent to requests that
// asked for them. A v3 client is unaffected too: every v3 line parses
// and answers byte-identically (match-shaped PART frames keep the v3
// `PART <Kind>` spelling); the GROUP/REC variants only appear on
// progress=1 q2/q3 requests, which v3 accepted but never streamed.
//
// Protocol v7 — replication. MANIFEST renders the same consistent-cut
// data as the on-disk `onex_manifest.json` in the newline grammar
// (RenderManifestBlock / ParseManifestPayload below), so a follower
// needs no JSON parser. FETCH is the one deliberate departure from
// pure line framing: its reply starts with a normal text header
//   OK Fetch dataset=<d> file=<f> bytes=<n> crc32=<c> chunks=<k>
// and is followed by <k> BINARY chunks, each [u32 len][u32 crc32]
// [len payload bytes] (little-endian), then the usual "." terminator
// line. Each chunk is independently CRC'd so a torn transfer is caught
// at the chunk where it happened, and the header CRC covers the whole
// artifact. A client that never sends FETCH never sees a binary byte —
// which is how every v6-and-older session stays byte-identical.
//
// Error replies are a single header line "ERR <CODE> [id=<n>] <message>"
// plus the terminator; codes are WireCode(Status::Code) tokens or the
// protocol-level kOverloadedCode / kNoDatasetCode / kReadOnlyCode.

#ifndef ONEX_SERVER_PROTOCOL_H_
#define ONEX_SERVER_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "api/engine.h"
#include "storage/manifest.h"
#include "util/status.h"

namespace onex {
namespace server {

/// Wire-format version, announced in the greeting ("ONEX/7 ready") and
/// bumped on any grammar change (2: APPEND/FLUSH mutation verbs; 3:
/// request ids / CANCEL / DEADLINE_MS / PART progressive frames; 4:
/// typed PART variants — group-shaped q2 and recommendation-shaped q3
/// progress stream as PART GROUP / PART REC frames; 5: observability —
/// the `trace=1` query attribute appends `trace ...` payload lines to
/// the final OK block, and the METRICS verb renders every counter /
/// histogram / gauge in Prometheus text exposition format; 6:
/// operational introspection — the INSPECT verb renders the live
/// in-flight query table plus worker/queue/session/catalog snapshots,
/// and the HEALTH verb answers liveness/readiness probes; 7:
/// replication — the MANIFEST verb renders the leader's consistent-cut
/// manifest in line form, FETCH streams one manifest artifact as
/// CRC-framed binary chunks, and CANCEL grows the cross-session admin
/// form `cancel <session>/<id>`; 8: routing — the `dataset=` query
/// attribute addresses a dataset (or, through onex_router, a shard-set
/// like `sales-*`) per query without rebinding the session). The v8
/// grammar is a strict superset of v7 (itself of v6, of v5, of v4, of
/// v3, of v2) — negotiation is one-sided: the server announces its
/// version, and a client that only speaks an older one simply never
/// sends the newer verbs, so every v7 session's bytes are unchanged.
inline constexpr int kWireVersion = 8;
/// Oldest grammar still accepted verbatim.
inline constexpr int kMinWireVersion = 2;

/// PART-frame shape tokens of the v4 variants. The match-shaped variant
/// keeps the v3 spelling — `PART <QueryKind>` — for byte compatibility;
/// GROUP and REC frames carry these tokens in the kind position.
inline constexpr const char* kPartGroupToken = "GROUP";
inline constexpr const char* kPartRecToken = "REC";

/// Protocol-level error codes with no Status::Code equivalent.
inline constexpr const char* kOverloadedCode = "OVERLOADED";
inline constexpr const char* kNoDatasetCode = "NO_DATASET";
/// v7: mutation verbs (APPEND/FLUSH) refused by a read-only follower.
inline constexpr const char* kReadOnlyCode = "READ_ONLY";

/// Session-control verbs (everything that is neither a QueryRequest nor
/// a mutation). kFlush rides here: it has no operands and, like the
/// other control verbs, is answered inline on the session thread.
/// kCancel (v3) is also inline: it must overtake queued queries, which
/// is the whole point. kMetrics (v5) renders the Prometheus exposition.
/// kInspect / kHealth (v6) answer the operational introspection tier —
/// inline too, precisely so they still work when every worker is wedged
/// (the one moment an operator needs them most).
enum class ControlVerb {
  kUse, kList, kStats, kPing, kHelp, kQuit, kFlush, kCancel, kMetrics,
  kInspect, kHealth, kManifest, kFetch,
};

/// A parsed control line; `argument` is the dataset name for kUse, the
/// decimal request id for kCancel (or `<session>/<id>`, both validated
/// as integers at parse time, for the v7 admin form), and the dataset
/// name for kFetch (whose artifact file name rides in `argument2`).
struct ControlRequest {
  ControlVerb verb = ControlVerb::kPing;
  std::string argument;
  std::string argument2 = {};
};

/// v3+ request attributes: the `key=value` tokens before the verb.
struct RequestAttrs {
  /// Request id; 0 = untagged (v2-style strictly ordered reply).
  uint64_t id = 0;
  /// Query budget in milliseconds; 0 = unbounded.
  uint64_t deadline_ms = 0;
  /// Stream PART frames while the query runs (requires id != 0).
  bool progress = false;
  /// v5: append `trace ...` payload lines (stage timings + cascade
  /// counters) to the final OK block. Render-time only — deliberately
  /// excluded from any(): tracing needs no ExecContext plumbing.
  bool trace = false;
  /// v8: per-query dataset override — this query runs against the named
  /// dataset instead of the session's bound one. Through onex_router
  /// the value may be a shard-set (`<prefix>-*` or `*`), which the
  /// router expands and scatters; a plain server accepts exact names
  /// only. Excluded from any(): addressing needs no ExecContext.
  std::string dataset;

  bool any() const { return id != 0 || deadline_ms != 0 || progress; }
};

/// The APPEND mutation: add one series to the session's bound dataset
/// (Algorithm 1 maintenance over the wire). Not a QueryRequest — it
/// needs mutable, catalog-mediated access, not Engine::Execute.
struct AppendRequest {
  std::vector<double> values;
  int label = 0;
};

/// One parsed request line: session control, a mutation, or an Engine
/// query.
using Request = std::variant<ControlRequest, AppendRequest, QueryRequest>;

// ------------------------------------------------------------- requests

/// Parses one request line. InvalidArgument with a human-readable
/// message on unknown verbs, malformed numbers, or missing operands.
/// v3 attribute tokens (`id=`, `deadline_ms=`, `progress=`) before the
/// verb are delivered through `attrs` when non-null; when `attrs` is
/// null a line carrying attributes is rejected (the caller has no way
/// to honor them, and silently dropping a deadline would be worse).
/// Attributes are only valid on QUERY lines.
Result<Request> ParseRequestLine(const std::string& line,
                                 RequestAttrs* attrs = nullptr);

/// Renders a QueryRequest back into its request line (the client side
/// of the grammar). ParseRequestLine(RenderRequestLine(r)) reproduces
/// `r` exactly: doubles are printed with round-trip precision.
std::string RenderRequestLine(const QueryRequest& request);

/// v3 form: the same line prefixed with the given attribute tokens.
std::string RenderRequestLine(const QueryRequest& request,
                              const RequestAttrs& attrs);

/// Same round-trip guarantee for the APPEND mutation line.
std::string RenderAppendLine(const AppendRequest& request);

/// The `cancel <id>` line.
std::string RenderCancelLine(uint64_t id);

// ------------------------------------------------------------ responses

/// Renders a successful QueryResponse as a full reply block (header,
/// stats line, payload lines, "." terminator), e.g.
///   OK BestMatch matches=1 latency_us=152
///   stats lengths_scanned=1 reps_compared=12 ... lemma2_admitted=0
///   match series=2 start=3 length=8 distance=0.012 group=4 bound=0
///   .
/// Tagged replies (id != 0) add `id=<n>` after the kind token; partial
/// (interrupted) responses add `partial=1 interrupt=<CODE>`.
/// `trace` (the v5 trace=1 attribute) appends the TRACE payload lines
/// after the stats line:
///   trace stage queue_wait_us=... rep_scan_us=... member_scan_us=...
///         knn_us=... refine_us=... exec_us=...
///   trace cascade seen=... kim_pruned=... keogh_pruned=...
///         dtw_evaluated=... early_abandoned=... pruning_ratio=...
/// where seen == kim_pruned + keogh_pruned + dtw_evaluated always, and
/// pruning_ratio = 1 - dtw_evaluated/seen (0 when nothing was seen).
/// With trace=false (every pre-v5 session) the block is byte-identical
/// to v4.
std::string RenderResponse(const QueryResponse& response, uint64_t id = 0,
                           bool trace = false);

/// Renders one match-shaped progressive frame (byte-identical to v3):
///   PART <Kind> id=<n> seq=<k> frac=<f> snapshot=<0|1> matches=<m>
///   match ...
///   .
std::string RenderPartBlock(QueryKind kind, uint64_t id, uint64_t seq,
                            double work_fraction, bool snapshot,
                            std::span<const QueryMatch> matches);

/// Renders one group-shaped (v4 `PART GROUP`) progressive frame; the
/// payload lines are the `group ...` lines of a final Seasonal block.
std::string RenderPartBlock(uint64_t id, uint64_t seq, double work_fraction,
                            bool snapshot,
                            std::span<const std::vector<SubsequenceRef>>
                                groups);

/// Renders one recommendation-shaped (v4 `PART REC`) progressive frame;
/// the payload lines are the `recommend ...` lines of a final block.
std::string RenderPartBlock(uint64_t id, uint64_t seq, double work_fraction,
                            bool snapshot,
                            std::span<const Recommendation> rows);

/// Renders one typed progress event as the PART variant matching its
/// payload shape — what the server's streamer and the CLI both call, so
/// the two surfaces cannot diverge. `kind` is only used by the
/// match-shaped variant (its header carries the query kind).
std::string RenderPartBlock(QueryKind kind, uint64_t id, uint64_t seq,
                            const ProgressEvent& event);

/// Renders an error reply block from a Status ("ERR <CODE> <msg>\n.\n");
/// `id` != 0 inserts the `id=<n>` token between code and message.
std::string RenderError(const Status& status, uint64_t id = 0);

/// Renders an error reply block from an explicit wire code (used for
/// kOverloadedCode / kNoDatasetCode, which have no Status equivalent).
std::string RenderErrorBlock(const std::string& code,
                             const std::string& message, uint64_t id = 0);

/// The connect-time greeting line (newline-terminated).
std::string Greeting();

/// The help payload rendered for the `help` verb (block with header and
/// terminator included).
std::string RenderHelp();

/// v7: renders a consistent-cut manifest as a MANIFEST reply block —
/// the line-grammar twin of storage::RenderManifestJson:
///   OK Manifest version=1 created_unix_s=<t> datasets=<n>
///   dataset name=<d> series=<s> live_series=<l> base=<file>
///           base_bytes=<b> base_crc32=<c> wal=<file> wal_bytes=<b>
///           deltas=<k>
///   delta dataset=<d> k=<i> file=<f> bytes=<b> crc32=<c>
///   .
/// Rendering and parsing live side by side here so the leader's bytes
/// and the follower's reader cannot drift apart.
std::string RenderManifestBlock(const storage::Manifest& manifest);

/// v7: reassembles a Manifest from the payload lines of a MANIFEST
/// reply block (WireResponse::payload). InvalidArgument on missing or
/// malformed fields — a follower must never bootstrap from a manifest
/// it only partially understood.
Result<storage::Manifest> ParseManifestPayload(
    const std::vector<std::string>& payload,
    const std::map<std::string, std::string>& header);

/// Maps a Status code to its wire token (e.g. kNotFound -> "NOT_FOUND").
const char* WireCode(Status::Code code);

// ------------------------------------------------------- client parsing

/// A reply block as seen by a client, split back into its parts.
struct WireResponse {
  /// The header line verbatim (no newline), for relaying the block
  /// unchanged.
  std::string header_line;
  bool ok = false;
  /// v3: a PART progressive frame (ok is also true). Final replies have
  /// part == false.
  bool part = false;
  std::string code;     ///< Error code token when !ok.
  std::string message;  ///< Error message remainder when !ok.
  std::string kind;     ///< Header kind token when ok ("BestMatch", ...).
  /// key=value pairs of the header line (matches=, latency_us=, and for
  /// v3 tagged replies id=, partial=, interrupt=, seq=, frac=, ...).
  std::map<std::string, std::string> header;
  /// Payload lines verbatim, terminator excluded.
  std::vector<std::string> payload;

  /// Request id the block answers (0 = untagged). Works for OK, PART,
  /// and ERR headers alike.
  uint64_t id() const;
  /// True when the reply is an interrupted (partial) result.
  bool partial() const;
  /// Shape of a PART frame's payload: kGroup for `PART GROUP`,
  /// kRecommend for `PART REC`, kMatch for the v3-style `PART <Kind>`
  /// frames. Only meaningful when `part` is true.
  PayloadShape part_shape() const;
};

/// Reassembles a reply block from its lines (terminator line optional).
/// InvalidArgument if the first line is none of "OK ...", "ERR ...",
/// "PART ...".
Result<WireResponse> ParseResponseBlock(const std::vector<std::string>& lines);

/// Splits "key=value" tokens of one line into a map (tokens without '='
/// are skipped). Convenience for clients digging into payload lines.
std::map<std::string, std::string> ParseKeyValues(const std::string& line);

// ------------------------------------------------------- shared lexing

/// Appends `v` in the wire's round-trip format: byte-identical to
/// printf("%.17g", v), which reproduces the exact bits on parse.
void AppendDouble(std::string& out, double v);

/// Parses "0.1,0.2,-3e-1" into values; nullopt on empty, non-numeric
/// or non-finite input. Shared with the CLI's append command.
std::optional<std::vector<double>> ParseValuesCsv(const std::string& csv);

/// "any"/"all" -> 0 (the engine's every-length sentinel); a number ->
/// itself; anything else -> nullopt so typos don't silently widen a
/// query to every length.
std::optional<size_t> ParseLengthToken(const std::string& token);

}  // namespace server
}  // namespace onex

#endif  // ONEX_SERVER_PROTOCOL_H_
