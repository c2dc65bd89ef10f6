#include "predicate/dyadic.h"

#include <cstddef>

namespace ccf {

Status ValidateDyadicValue(uint64_t value, int max_level) {
  if (max_level < 0 || max_level > kMaxDyadicLevel) {
    return Status::Invalid("max_level must be in [0, 57]");
  }
  if (value >= kDyadicDomainSize) {
    return Status::Invalid(
        "dyadic value out of domain (must be < 2^58: the level-0 index "
        "would alias into the packed level field)");
  }
  return Status::OK();
}

Result<std::vector<DyadicInterval>> DyadicLabels(uint64_t value,
                                                 int max_level) {
  CCF_RETURN_NOT_OK(ValidateDyadicValue(value, max_level));
  std::vector<DyadicInterval> out;
  out.reserve(static_cast<size_t>(max_level) + 1);
  for (int level = 0; level <= max_level; ++level) {
    out.push_back(DyadicInterval{level, value >> level});
  }
  return out;
}

Result<std::vector<DyadicInterval>> DyadicCover(uint64_t lo, uint64_t hi,
                                                int max_level) {
  CCF_RETURN_NOT_OK(ValidateDyadicValue(lo, max_level));
  CCF_RETURN_NOT_OK(ValidateDyadicValue(hi, max_level));
  std::vector<DyadicInterval> out;
  while (lo <= hi) {
    // Largest level ≤ max_level such that lo is aligned and the interval
    // fits within [lo, hi].
    int level = 0;
    while (level < max_level) {
      int next = level + 1;
      uint64_t span = uint64_t{1} << next;
      bool aligned = (lo & (span - 1)) == 0;
      // fits: lo + span - 1 <= hi, avoiding overflow.
      bool fits = aligned && (span - 1 <= hi - lo);
      if (!fits) break;
      level = next;
    }
    if (out.size() >= kMaxDyadicCoverIntervals) {
      return Status::Invalid(
          "dyadic cover exceeds kMaxDyadicCoverIntervals: max_level is too "
          "small for the range width (each extra level halves the cover)");
    }
    out.push_back(DyadicInterval{level, lo >> level});
    uint64_t span = uint64_t{1} << level;
    if (hi - lo < span) break;  // covered through hi (avoid overflow)
    lo += span;
  }
  return out;
}

}  // namespace ccf
