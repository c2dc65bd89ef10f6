// Dyadic range decomposition (§9.1's alternative to binning): an item is
// represented by the chain of dyadic intervals containing it; a range is
// covered by O(log |range|) maximal dyadic intervals. Items insert all their
// interval labels; a range query checks the covering labels.
#ifndef CCF_PREDICATE_DYADIC_H_
#define CCF_PREDICATE_DYADIC_H_

#include <cstdint>
#include <vector>

#include "util/result.h"

namespace ccf {

/// Highest representable dyadic level: Label() packs the level into the top
/// 6 bits of a 64-bit word, leaving 58 bits for the interval index.
inline constexpr int kMaxDyadicLevel = 57;

/// Size of the representable dyadic value domain: values (and interval
/// bounds) must be < 2^58 so a level-0 index never spills into the packed
/// level field.
inline constexpr uint64_t kDyadicDomainSize = uint64_t{1} << 58;

/// A dyadic interval at `level` (0 = single values) covering
/// [index << level, ((index + 1) << level) - 1].
struct DyadicInterval {
  int level = 0;
  uint64_t index = 0;

  /// Packs (level, index) into one attribute value: level lives in the top
  /// 6 bits so labels at different levels never collide. Requires
  /// index < 2^58 — DyadicLabels/DyadicCover enforce this by rejecting
  /// out-of-domain values, so every label they hand out is collision-free.
  uint64_t Label() const {
    return (static_cast<uint64_t>(level) << 58) | index;
  }

  bool operator==(const DyadicInterval& other) const = default;
};

/// InvalidArgument when max_level is outside [0, kMaxDyadicLevel] or value
/// >= kDyadicDomainSize (the level-0 index would alias into the packed
/// level field); OK exactly when DyadicLabels(value, max_level) succeeds.
/// Lets callers write the labels (DyadicInterval{level, value >> level})
/// straight into their own buffers.
Status ValidateDyadicValue(uint64_t value, int max_level);

/// All dyadic intervals containing `value`, levels 0..max_level inclusive
/// (the η insertions per item of §9.1). Errors as ValidateDyadicValue.
Result<std::vector<DyadicInterval>> DyadicLabels(uint64_t value,
                                                 int max_level);

/// Upper bound on the intervals one cover may contain. A range much wider
/// than 2^max_level degenerates into width / 2^max_level level-max
/// intervals — for a 2^58 domain at max_level 10 that is 2^48 intervals,
/// an allocation (and in-list predicate) no caller survives. Covers that
/// would exceed this cap are rejected instead of materialized.
inline constexpr size_t kMaxDyadicCoverIntervals = 4096;

/// Minimal set of dyadic intervals with level ≤ max_level exactly covering
/// the closed range [lo, hi]. Standard greedy decomposition; the result has
/// at most 2·(max_level + 1) intervals when 2^max_level is no smaller than
/// a quarter of the range width. An empty (lo > hi) range yields an
/// empty cover — a predicate over it matches nothing. InvalidArgument when
/// max_level is outside [0, kMaxDyadicLevel], either bound is >=
/// kDyadicDomainSize (the cover would be incomplete or alias across
/// levels), or the cover would exceed kMaxDyadicCoverIntervals (max_level
/// too small for the range width — widen the levels or narrow the range);
/// callers with open-ended ranges clamp before calling (see
/// RangeCcf::CompileRange, which also degrades too-wide ranges to a
/// conservative range-free probe instead of failing the query).
Result<std::vector<DyadicInterval>> DyadicCover(uint64_t lo, uint64_t hi,
                                                int max_level);

}  // namespace ccf

#endif  // CCF_PREDICATE_DYADIC_H_
