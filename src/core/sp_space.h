// Copyright 2026 The ONEX Reproduction Authors.
// Similarity Parameter Space (paper Sec. 4.2 and Fig. 1). Two groups of
// one length merge at a new threshold ST' once ST' - ST >= Dc, so the
// thresholds at which half (SThalf) and all (STfinal) of the groups have
// merged are single-linkage merge heights: the i-th merge fires at the
// i-th smallest edge of a minimum spanning tree of the complete
// representative graph. Global markers take the maximum of the local
// ones across lengths; the S/M/L similarity degrees of Q3 are intervals
// delimited by these markers.

#ifndef ONEX_CORE_SP_SPACE_H_
#define ONEX_CORE_SP_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace onex {

/// The two critical thresholds of one length.
struct MergeThresholds {
  double st_half = 0.0;
  double st_final = 0.0;
};

/// Position of the pair (k, l), k < l, in the strict upper triangle of a
/// g x g matrix stored row by row: (0,1), (0,2), ..., (0,g-1), (1,2), ...
inline size_t UpperTriangleIndex(size_t k, size_t l, size_t g) {
  return k * (2 * g - k - 1) / 2 + (l - k - 1);
}

/// The buffers ComputeMergeThresholds works in over g groups,
/// allocated by the constructor so that the pass allocates nothing.
struct PrimScratch {
  explicit PrimScratch(size_t g)
      : rest(g > 1 ? g - 1 : 0), key(rest.size()), weights(rest.size()) {}
  std::vector<uint32_t> rest;   ///< Groups not yet in the tree.
  std::vector<double> key;      ///< Lightest edge of each into the tree.
  std::vector<double> weights;  ///< Tree edge weights, in join order.
};

/// Computes SThalf / STfinal from the g(g-1)/2 Dc values of the strict
/// upper triangle (UpperTriangleIndex order) and the base threshold
/// `st`, with a dense Prim pass: O(g^2) time, working in `scratch`
/// (built for at least g groups). One group (or zero) yields {st, st}:
/// nothing can merge, so every ST' behaves the same.
MergeThresholds ComputeMergeThresholds(std::span<const double> upper,
                                       size_t g, double st,
                                       PrimScratch& scratch);

/// The paper's similarity degrees (Sec. 4.2).
enum class SimilarityDegree { kStrict, kMedium, kLoose };

/// Parses "S" / "M" / "L" (case-insensitive). Anything else -> kMedium.
SimilarityDegree ParseDegree(const std::string& token);

/// Aggregated SP-Space over all lengths.
class SpSpace {
 public:
  /// Records one length's local thresholds.
  void AddLength(size_t length, MergeThresholds local);

  /// Local thresholds for `length`; {0,0} if the length is unknown.
  MergeThresholds Local(size_t length) const;

  /// Global markers: the maxima of the local values (paper Fig. 1's
  /// dashed lines), so that ST' >= global st_final merges everything at
  /// every length.
  MergeThresholds Global() const;

  /// Recommended ST interval for a degree (Q3): Strict = [0, SThalf],
  /// Medium = [SThalf, STfinal], Loose = [STfinal, 1.5 * STfinal].
  /// Uses local thresholds when `length` is non-zero and known,
  /// otherwise global ones.
  std::pair<double, double> Recommend(SimilarityDegree degree,
                                      size_t length = 0) const;

  /// Classifies a threshold into a degree (local if length known).
  SimilarityDegree Classify(double st, size_t length = 0) const;

  bool empty() const { return locals_.empty(); }

 private:
  std::vector<std::pair<size_t, MergeThresholds>> locals_;
};

}  // namespace onex

#endif  // ONEX_CORE_SP_SPACE_H_
