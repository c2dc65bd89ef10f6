#include "bloom/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/batch_pipeline.h"

namespace ccf {

BloomFilter::BloomFilter(uint64_t num_bits, int num_hashes, uint64_t salt)
    : bits_(num_bits), num_hashes_(num_hashes), hasher_(salt) {}

Result<BloomFilter> BloomFilter::Make(uint64_t num_bits, int num_hashes,
                                      uint64_t salt) {
  if (num_bits == 0) {
    return Status::Invalid("BloomFilter requires at least 1 bit");
  }
  if (num_hashes < 1 || num_hashes > 64) {
    return Status::Invalid("BloomFilter num_hashes must be in [1, 64]");
  }
  return BloomFilter(num_bits, num_hashes, salt);
}

uint64_t BloomFilter::OptimalBits(uint64_t n, double fpp) {
  if (n == 0) return 64;
  double m = -static_cast<double>(n) * std::log(fpp) /
             (std::numbers::ln2_v<double> * std::numbers::ln2_v<double>);
  return std::max<uint64_t>(64, static_cast<uint64_t>(std::ceil(m)));
}

int BloomFilter::OptimalNumHashes(uint64_t num_bits, uint64_t n) {
  if (n == 0) return 1;
  double k = static_cast<double>(num_bits) / static_cast<double>(n) *
             std::numbers::ln2_v<double>;
  return std::clamp(static_cast<int>(std::lround(k)), 1, 16);
}

void BloomFilter::Insert(uint64_t item) {
  uint64_t h1 = hasher_.Hash(item, 0);
  uint64_t h2 = hasher_.Hash(item, 1) | 1;  // odd stride
  uint64_t m = bits_.size();
  for (int i = 0; i < num_hashes_; ++i) {
    bits_.SetBit((h1 + static_cast<uint64_t>(i) * h2) % m, true);
  }
}

bool BloomFilter::Contains(uint64_t item) const {
  uint64_t h1 = hasher_.Hash(item, 0);
  uint64_t h2 = hasher_.Hash(item, 1) | 1;
  uint64_t m = bits_.size();
  for (int i = 0; i < num_hashes_; ++i) {
    if (!bits_.GetBit((h1 + static_cast<uint64_t>(i) * h2) % m)) return false;
  }
  return true;
}

void BloomFilter::ContainsBatch(std::span<const uint64_t> items,
                                std::span<bool> out) const {
  CCF_DCHECK(out.size() == items.size());
  // The library-wide two-pass pipeline; the first probe's bit is
  // prefetched ahead of its test.
  const uint64_t m = bits_.size();
  struct Addr {
    uint64_t first_bit;  // first probe's bit index
    uint64_t h1;
    uint64_t h2;
  };
  RunBatchPipeline<Addr>(
      items.size(), kBatchPipelineBlock,
      [&](size_t i) {
        Addr a;
        a.h1 = hasher_.Hash(items[i], 0);
        a.h2 = hasher_.Hash(items[i], 1) | 1;
        a.first_bit = a.h1 % m;
        return a;
      },
      [&](const Addr& a) { bits_.PrefetchBit(a.first_bit); },
      [&](size_t i, const Addr& a) {
        bool hit = true;
        for (int k = 0; k < num_hashes_; ++k) {
          if (!bits_.GetBit((a.h1 + static_cast<uint64_t>(k) * a.h2) % m)) {
            hit = false;
            break;
          }
        }
        out[i] = hit;
      });
}

double BloomFilter::EstimatedFpr() const {
  double fill = static_cast<double>(bits_.PopCount()) /
                static_cast<double>(bits_.size());
  return std::pow(fill, num_hashes_);
}

Status BloomFilter::UnionWith(const BloomFilter& other) {
  if (other.bits_.size() != bits_.size() ||
      other.num_hashes_ != num_hashes_ ||
      other.hasher_.salt() != hasher_.salt()) {
    return Status::Invalid("BloomFilter::UnionWith requires equal geometry");
  }
  for (size_t i = 0; i < bits_.size(); ++i) {
    if (other.bits_.GetBit(i)) bits_.SetBit(i, true);
  }
  return Status::OK();
}

}  // namespace ccf
