#include "ccf/stats.h"

#include <unordered_set>

#include "cuckoo/cuckoo_filter.h"

namespace ccf {

std::string CcfStats::ToString() const {
  std::string out;
  out += "buckets=" + std::to_string(num_buckets);
  out += " slots/bucket=" + std::to_string(slots_per_bucket);
  out += " occupied=" + std::to_string(occupied_entries);
  out += " load=" + std::to_string(load_factor);
  out += " distinct_fp=" + std::to_string(distinct_fingerprints);
  auto append_histogram = [&out](const auto& histogram) {
    for (const auto& [k, v] : histogram) {
      out += ' ';
      out += std::to_string(k);
      out += ':';
      out += std::to_string(v);
    }
  };
  out += "\nbucket occupancy:";
  append_histogram(bucket_occupancy_histogram);
  out += "\npair duplication:";
  append_histogram(pair_duplication_histogram);
  return out;
}

CcfStats ComputeStats(const CcfBase& ccf) {
  const BucketTable& table = ccf.table();
  CcfStats stats;
  stats.num_buckets = table.num_buckets();
  stats.slots_per_bucket = table.slots_per_bucket();
  stats.occupied_entries = table.num_occupied();
  stats.load_factor = table.LoadFactor();

  std::unordered_set<uint32_t> fingerprints;
  std::unordered_set<uint64_t> seen_groups;
  for (uint64_t b = 0; b < table.num_buckets(); ++b) {
    stats.bucket_occupancy_histogram[table.CountOccupied(b)] += 1;
    for (int s = 0; s < table.slots_per_bucket(); ++s) {
      if (!table.occupied(b, s)) continue;
      uint32_t fp = table.fingerprint(b, s);
      fingerprints.insert(fp);
      uint64_t alt = cuckoo_addressing::AltBucket(ccf.hasher(), b, fp,
                                                  table.bucket_mask());
      uint64_t lo = b < alt ? b : alt;
      uint64_t hi = b < alt ? alt : b;
      uint64_t group =
          (lo * table.num_buckets() + hi) *
              (uint64_t{1} << table.fingerprint_bits()) +
          fp;
      if (!seen_groups.insert(group).second) continue;
      int count = table.CountFingerprint(b, fp);
      if (alt != b) count += table.CountFingerprint(alt, fp);
      stats.pair_duplication_histogram[count] += 1;
    }
  }
  stats.distinct_fingerprints = fingerprints.size();
  return stats;
}

}  // namespace ccf
