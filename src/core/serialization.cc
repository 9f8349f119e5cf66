#include "core/serialization.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/gti.h"
#include "distance/envelope.h"
#include "util/file_bytes.h"

namespace onex {
namespace {

constexpr char kMagic[4] = {'O', 'N', 'E', 'X'};

/// The last format version that stored the Dc matrix; still readable.
constexpr uint32_t kVersionWithDc = 1;
/// The last format version that stored every group's representative
/// and a length in every member record; still readable.
constexpr uint32_t kVersionWithSingletonReps = 2;

// Smallest possible records, for the pre-reserve bounds checks.
/// Every version: u64 length, f64 st_half, f64 st_final, u64 group
/// count, u64 sum count.
constexpr uint64_t kMinEntryBytes = 40;
/// Versions 1-2: u64 representative size + u64 member count.
constexpr uint64_t kMinOldGroupBytes = 16;
/// Version 3 singleton: u32 member count, u32 series, u32 start.
constexpr uint64_t kSingletonBytes = 12;
/// Version 3 larger group, before its representative's doubles: u32
/// member count and at least two 16-byte member records.
constexpr uint64_t kMinGroupBytesBeforeRep = 4 + 2 * 16;

// ------------------------------------------------------------- Writing.

class Writer {
 public:
  explicit Writer(std::ostream* out) : out_(out) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }
  bool ok() const { return out_->good(); }

  void Raw(const void* data, size_t bytes) {
    out_->write(static_cast<const char*>(data),
                static_cast<std::streamsize>(bytes));
  }

 private:
  std::ostream* out_;
};

// ------------------------------------------------------------- Reading.

// A bounds-checked cursor over the snapshot bytes. Every count is
// validated against the bytes actually left BEFORE the corresponding
// resize/reserve: a corrupt length prefix must come back as Corruption,
// never as a multi-gigabyte allocation (or a std::bad_alloc crash) from
// attacker- or bitrot-controlled data.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s, uint64_t max = 1 << 20) {
    uint64_t n = 0;
    if (!U64(&n) || n > max || n > remaining()) return false;
    s->assign(bytes_.data() + at_, n);
    at_ += n;
    return true;
  }
  bool Doubles(std::vector<double>* v) {
    uint64_t n = 0;
    if (!U64(&n) || n > remaining() / sizeof(double)) return false;
    v->resize(n);
    return Raw(v->data(), n * sizeof(double));
  }

  /// Skips a length-prefixed block of doubles without materializing it;
  /// `*n` receives its length prefix.
  bool SkipDoubles(uint64_t* n) {
    if (!U64(n) || *n > remaining() / sizeof(double)) return false;
    at_ += *n * sizeof(double);
    return true;
  }

  /// True when `count` records of at least `min_bytes_each` could still
  /// fit in the buffer — the pre-reserve sanity check for every
  /// variable-length section.
  bool Fits(uint64_t count, uint64_t min_bytes_each) const {
    return count <= remaining() / min_bytes_each;
  }

  bool Raw(void* data, size_t bytes) {
    if (bytes > remaining()) return false;
    if (bytes > 0) std::memcpy(data, bytes_.data() + at_, bytes);
    at_ += bytes;
    return true;
  }

  uint64_t remaining() const { return bytes_.size() - at_; }

 private:
  std::string_view bytes_;
  size_t at_ = 0;
};

/// Stream-generic save body shared by the file and in-memory entry
/// points; `where` names the destination in error messages.
Status SaveBaseToStream(const OnexBase& base, std::ostream& out,
                        const std::string& where) {
  Writer w(&out);
  out.write(kMagic, sizeof(kMagic));
  w.U32(kOnexBaseFormatVersion);

  // Dataset.
  const Dataset& dataset = base.dataset();
  w.Str(dataset.name());
  w.U64(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    w.U32(static_cast<uint32_t>(dataset[i].label()));
    w.Doubles(dataset[i].values());
  }

  // Options.
  const OnexOptions& options = base.options();
  w.F64(options.st);
  w.U64(options.lengths.min_length);
  w.U64(options.lengths.max_length);
  w.U64(options.lengths.step);
  w.F64(options.window_ratio);
  w.U64(options.seed);
  w.U32(options.compute_sp_space ? 1 : 0);

  // GTI entries.
  w.U64(base.gti().entries().size());
  for (const auto& [length, entry] : base.gti().entries()) {
    w.U64(length);
    w.F64(entry.st_half);
    w.F64(entry.st_final);
    w.U64(entry.groups.size());
    uint64_t singletons = 0;
    for (const auto& group : entry.groups) singletons += group.size() == 1;
    w.U64(singletons);
    for (const auto& group : entry.groups) {
      w.U32(static_cast<uint32_t>(group.members.size()));
      if (group.members.size() == 1) {
        // Its representative is the member itself and its ED to it 0.
        w.U32(group.members[0].ref.series);
        w.U32(group.members[0].ref.start);
        continue;
      }
      // The entry names the length, of the representative and of every
      // member alike.
      w.Raw(group.representative.data(),
            group.representative.size() * sizeof(double));
      for (const auto& member : group.members) {
        w.U32(member.ref.series);
        w.U32(member.ref.start);
        w.F64(member.ed_to_rep);
      }
    }
    // The sums are recomputable, but only in O(g^2 L); store them.
    w.U64(entry.sum_sorted.size());
    for (const auto& [k, sum] : entry.sum_sorted) {
      w.U32(k);
      w.F64(sum);
    }
  }
  if (!w.ok()) return Status::IOError("write failed for '" + where + "'");
  return Status::OK();
}

/// True when `singletons` version-3 singleton records and `larger`
/// version-3 larger groups of `length` points could fit in the bytes
/// left. Each count is bounded by division, so nothing overflows.
bool Version3GroupsFit(const Reader& r, uint64_t length, uint64_t singletons,
                       uint64_t larger) {
  if (!r.Fits(singletons, kSingletonBytes)) return false;
  if (larger == 0) return true;
  if (length > r.remaining() / sizeof(double)) return false;
  const uint64_t group_bytes =
      kMinGroupBytesBeforeRep + length * sizeof(double);
  return larger <=
         (r.remaining() - singletons * kSingletonBytes) / group_bytes;
}

/// Checks that `ref`, a member of an entry of `length` points, lies in
/// `dataset`.
bool RefInBounds(const SubsequenceRef& ref, const Dataset& dataset,
                 size_t length) {
  // Widen before adding: start + length are u32 and a corrupt pair can
  // wrap mod 2^32 past the bounds check.
  return ref.series < dataset.size() && ref.length == length &&
         static_cast<uint64_t>(ref.start) + ref.length <=
             dataset[ref.series].length();
}

/// True when `members`' EDs are finite and ascending from 0, as
/// BuildGtiEntry sorts them: ClosestMemberTo binary-searches them.
bool EdsAscending(const std::vector<LsiMember>& members) {
  double previous = 0.0;
  for (const LsiMember& member : members) {
    // Written so that NaN fails.
    if (!(member.ed_to_rep >= previous) || !std::isfinite(member.ed_to_rep)) {
      return false;
    }
    previous = member.ed_to_rep;
  }
  return true;
}

/// Decodes one version-1/2 group record: u64-prefixed representative,
/// u64 member count, 20-byte members (series, start, length, ed_to_rep).
/// A singleton's stored representative must equal its member bit for
/// bit, and its ED 0; it is dropped, as the builder drops it.
Result<LsiEntry> DecodeOldGroup(Reader& r, const Dataset& dataset,
                                size_t length) {
  LsiEntry group;
  uint64_t num_members = 0;
  if (!r.Doubles(&group.representative) || !r.U64(&num_members) ||
      !r.Fits(num_members, /*member record=*/20)) {
    return Status::Corruption("truncated group");
  }
  if (group.representative.size() != length) {
    return Status::Corruption("representative length mismatch");
  }
  if (num_members == 0) return Status::Corruption("empty group");
  group.members.resize(num_members);
  for (auto& member : group.members) {
    if (!r.U32(&member.ref.series) || !r.U32(&member.ref.start) ||
        !r.U32(&member.ref.length) || !r.F64(&member.ed_to_rep)) {
      return Status::Corruption("truncated member record");
    }
    if (!RefInBounds(member.ref, dataset, length)) {
      return Status::Corruption("member reference out of bounds");
    }
  }
  if (num_members == 1) {
    const auto values = group.members[0].ref.View(dataset);
    if (group.members[0].ed_to_rep != 0.0 ||
        std::memcmp(values.data(), group.representative.data(),
                    length * sizeof(double)) != 0) {
      return Status::Corruption("singleton representative differs from "
                                "its member");
    }
    group.representative = {};
  } else if (!EdsAscending(group.members)) {
    return Status::Corruption("member EDs not finite and ascending");
  }
  return group;
}

/// Decodes one version-3 group record: u32 member count, then either a
/// singleton's u32 series and u32 start, or the representative's
/// `length` doubles and 16-byte members (series, start, ed_to_rep). The
/// entry supplies the length of every member.
Result<LsiEntry> DecodeGroup(Reader& r, const Dataset& dataset,
                             size_t length) {
  LsiEntry group;
  uint32_t num_members = 0;
  if (!r.U32(&num_members)) return Status::Corruption("truncated group");
  if (num_members == 0) return Status::Corruption("empty group");
  if (num_members > 1) {
    if (length > r.remaining() / sizeof(double) ||
        !r.Fits(num_members, /*member record=*/16)) {
      return Status::Corruption("truncated group");
    }
    group.representative.resize(length);
    if (!r.Raw(group.representative.data(), length * sizeof(double))) {
      return Status::Corruption("truncated representative");
    }
  }
  group.members.resize(num_members);
  for (auto& member : group.members) {
    member.ref.length = static_cast<uint32_t>(length);
    if (!r.U32(&member.ref.series) || !r.U32(&member.ref.start) ||
        (num_members > 1 && !r.F64(&member.ed_to_rep))) {
      return Status::Corruption("truncated member record");
    }
    if (!RefInBounds(member.ref, dataset, length)) {
      return Status::Corruption("member reference out of bounds");
    }
  }
  if (!EdsAscending(group.members)) {
    return Status::Corruption("member EDs not finite and ascending");
  }
  return group;
}

/// The one decoder behind the file and in-memory entry points; `where`
/// names the source in error messages.
Result<OnexBase> DecodeBase(std::string_view bytes, const std::string& where) {
  Reader r(bytes);

  char magic[4];
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("'" + where + "' is not an ONEX base file");
  }
  uint32_t version = 0;
  if (!r.U32(&version) || version < kVersionWithDc ||
      version > kOnexBaseFormatVersion) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(version));
  }

  // Dataset.
  std::string name;
  uint64_t num_series = 0;
  if (!r.Str(&name) || !r.U64(&num_series) ||
      !r.Fits(num_series, /*label + count=*/12)) {
    return Status::Corruption("truncated dataset header");
  }
  Dataset dataset(name);
  dataset.Reserve(num_series);
  for (uint64_t i = 0; i < num_series; ++i) {
    uint32_t label = 0;
    std::vector<double> values;
    if (!r.U32(&label) || !r.Doubles(&values)) {
      return Status::Corruption("truncated series " + std::to_string(i));
    }
    dataset.Add(TimeSeries(std::move(values), static_cast<int>(label)));
  }

  // Options.
  OnexOptions options;
  uint64_t min_len = 0, max_len = 0, step = 0, seed = 0;
  uint32_t sp = 0;
  if (!r.F64(&options.st) || !r.U64(&min_len) || !r.U64(&max_len) ||
      !r.U64(&step) || !r.F64(&options.window_ratio) || !r.U64(&seed) ||
      !r.U32(&sp)) {
    return Status::Corruption("truncated options block");
  }
  options.lengths = {static_cast<size_t>(min_len),
                     static_cast<size_t>(max_len),
                     static_cast<size_t>(step)};
  options.seed = seed;
  options.compute_sp_space = sp != 0;
  if (Status valid = options.Validate(); !valid.ok()) {
    return Status::Corruption("invalid options block: " + valid.message());
  }

  // GTI.
  uint64_t num_lengths = 0;
  if (!r.U64(&num_lengths) || !r.Fits(num_lengths, kMinEntryBytes)) {
    return Status::Corruption("truncated GTI");
  }
  GlobalTimeIndex gti;
  for (uint64_t e = 0; e < num_lengths; ++e) {
    GtiEntry entry;
    uint64_t length = 0, num_groups = 0, num_singletons = 0;
    if (!r.U64(&length) || !r.F64(&entry.st_half) ||
        !r.F64(&entry.st_final) || !r.U64(&num_groups) ||
        (version > kVersionWithSingletonReps && !r.U64(&num_singletons))) {
      return Status::Corruption("truncated GTI entry header");
    }
    if (num_singletons > num_groups) {
      return Status::Corruption("singleton count larger than group count");
    }
    // Every group must fit in the bytes left before anything is
    // reserved for it.
    const bool fits =
        version <= kVersionWithSingletonReps
            ? r.Fits(num_groups, kMinOldGroupBytes)
            : Version3GroupsFit(r, length, num_singletons,
                                num_groups - num_singletons);
    if (!fits) return Status::Corruption("truncated GTI entry");
    if (!std::isfinite(entry.st_half) || !std::isfinite(entry.st_final) ||
        !(options.st <= entry.st_half) || !(entry.st_half <= entry.st_final)) {
      return Status::Corruption("SP-Space markers not finite or out of "
                                "order");
    }
    entry.length = static_cast<size_t>(length);
    const size_t window = EnvelopeWindow(options.window_ratio, entry.length);
    entry.groups.reserve(num_groups);
    uint64_t singletons_seen = 0;
    for (uint64_t g = 0; g < num_groups; ++g) {
      auto group = version <= kVersionWithSingletonReps
                       ? DecodeOldGroup(r, dataset, entry.length)
                       : DecodeGroup(r, dataset, entry.length);
      if (!group.ok()) return group.status();
      LsiEntry& decoded = group.value();
      singletons_seen += decoded.size() == 1;
      // Envelopes are derived state: rebuild.
      decoded.envelope =
          ComputeEnvelope(RepresentativeOf(decoded, dataset), window);
      entry.groups.push_back(std::move(decoded));
    }
    if (version > kVersionWithSingletonReps &&
        singletons_seen != num_singletons) {
      return Status::Corruption("singleton count mismatch");
    }
    const size_t g = entry.groups.size();
    if (version == kVersionWithDc) {
      uint64_t dc_size = 0;
      if (!r.SkipDoubles(&dc_size)) {
        return Status::Corruption("truncated Dc block");
      }
      if (dc_size != static_cast<uint64_t>(g) * g) {
        return Status::Corruption("Dc cardinality mismatch");
      }
    }
    uint64_t num_sums = 0;
    if (!r.U64(&num_sums)) return Status::Corruption("truncated sum block");
    if (num_sums != g) return Status::Corruption("sum cardinality mismatch");
    // The median-out search (Sec. 5.3) reaches a group only through this
    // order: a duplicated id would hide another group from every query.
    entry.sum_sorted.resize(num_sums);
    std::vector<bool> seen(g, false);
    for (size_t i = 0; i < g; ++i) {
      auto& [k, sum] = entry.sum_sorted[i];
      if (!r.U32(&k) || !r.F64(&sum)) {
        return Status::Corruption("truncated sum record");
      }
      if (k >= g || seen[k]) {
        return Status::Corruption("sum block is not a permutation of the "
                                  "groups");
      }
      seen[k] = true;
      if (i > 0 && !(entry.sum_sorted[i - 1].second <= sum)) {
        return Status::Corruption("sum block is not in ascending order");
      }
    }
    gti.Insert(std::move(entry));
  }
  return OnexBase::FromParts(std::move(dataset), options, std::move(gti));
}

}  // namespace

Status SaveBase(const OnexBase& base, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot create '" + path + "'");
  Status saved = SaveBaseToStream(base, out, path);
  if (!saved.ok()) return saved;
  out.close();
  if (!out) return Status::IOError("close failed for '" + path + "'");
  return Status::OK();
}

Result<OnexBase> LoadBase(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return Status::IOError(bytes.status().message());
  return DecodeBase(bytes.value(), path);
}

Result<std::string> SaveBaseToString(const OnexBase& base) {
  std::ostringstream out(std::ios::binary);
  Status saved = SaveBaseToStream(base, out, "<memory>");
  if (!saved.ok()) return saved;
  return std::move(out).str();
}

Result<OnexBase> LoadBaseFromBuffer(const std::string& buffer) {
  return DecodeBase(buffer, "<memory>");
}

}  // namespace onex
