// Building CCFs over dataset tables: one filter per table keyed on the join
// key with the table's predicate columns as attributes (production_year is
// stored binned, §10.3). Geometry follows §8's sizing rules from the
// measured duplicate profile, with resize-and-rebuild on insertion failure.
#ifndef CCF_JOIN_CCF_BUILDER_H_
#define CCF_JOIN_CCF_BUILDER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/sizing.h"
#include "data/imdb_synth.h"
#include "data/workload.h"
#include "predicate/range_binning.h"
#include "sketch/attribute_schema.h"

namespace ccf {

/// Filter-family parameters shared across the per-table CCFs (the paper's
/// "large" and "small" settings).
struct CcfBuildParams {
  CcfVariant variant = CcfVariant::kChained;
  int key_fp_bits = 12;
  int attr_fp_bits = 8;
  int bloom_bits = 16;
  int bloom_hashes = 2;
  bool optimize_bloom_hashes = false;
  int max_dupes = 3;
  /// 0 → §8's b ≈ 2d rule.
  int slots_per_bucket = 0;
  int max_chain = 0;  // unbounded
  uint64_t salt = 0;
  /// Doubling attempts before giving up. Unsharded builds retry the whole
  /// filter (each attempt doubles the bucket count and re-places rows from
  /// the hash memo); sharded builds instead grant each SHARD this many
  /// transparent online resizes (ShardedCcfOptions::max_auto_resizes), so a
  /// single overloaded shard doubles alone while the rest keep serving.
  int max_rebuilds = 5;
  /// Build through the batched two-wave InsertBatch pipeline, with each
  /// doubling rebuild re-placing rows from the hash memo instead of
  /// re-hashing the table. false pins the row-at-a-time scalar insertion
  /// order: slot assignment (hence FP-level outputs) then reproduces
  /// pre-batch builds bit-for-bit, which figure-reproduction tools rely on.
  /// Sharded builds (num_shards > 1) always take the batched per-shard
  /// path.
  bool batch_build = true;
  /// Shards per filter (> 1 builds a ShardedCcf with parallel insert and
  /// the same query answers as a well-sized single filter of that shard's
  /// rows; 1 keeps the unsharded filter).
  int num_shards = 1;
  /// Threads for the sharded parallel build; 0 means one per shard.
  int build_threads = 0;
  /// > 0 switches SHARDED builds to the live-write serving path: rows are
  /// staged into per-shard write buffers in chunks of this many rows and
  /// published with CommitWrites — the filter is continuously queryable
  /// (wait-free reads) while it grows, exactly as a serving instance
  /// absorbing traffic would be. 0 (default) keeps the offline
  /// InsertParallel bulk build. Ignored when num_shards <= 1.
  uint64_t live_write_batch = 0;
  /// ShardedCcfOptions::resize_watermark for sharded builds: shards whose
  /// occupancy crosses this load factor after a commit resize proactively
  /// in the background instead of waiting for CapacityError. 0 disables.
  double resize_watermark = 0.0;
  /// > 0 interleaves a CRUD churn workload with the live-write build: each
  /// commit chunk also stages this many TRANSIENT rows (keys from a
  /// reserved range disjoint from any dataset key) that live the full
  /// lifecycle across subsequent chunks — BufferWrite, then BufferUpdate to
  /// a second attribute vector, then BufferErase — with leftovers
  /// flush-erased after the last chunk, so the surviving row set is exactly
  /// the dataset rows. Exercises tombstone commits, slot reclamation, and
  /// watermark compaction on the serving path. Requires live_write_batch >
  /// 0; ignored otherwise.
  uint64_t live_churn_rows = 0;
  /// ShardedCcfOptions::compact_watermark for sharded builds: dead-row
  /// fraction of a shard's retained log at which a commit compacts the
  /// shard (negative keeps the ShardedCcfOptions default; 0 disables).
  double compact_watermark = -1.0;
  /// After a live-write build, Compact() the filter and verify per shard
  /// that the table serializes bit-identical to a from-scratch batched
  /// build of the shard's surviving rows at its current geometry —
  /// Status::Internal on any divergence. The acceptance gate for the CRUD
  /// path: whatever erase residue the best-effort reclamation left behind,
  /// compaction must erase the build history completely.
  bool live_differential_check = false;
};

/// The paper's evaluated settings (§10.5): large = 8-bit attributes, 12-bit
/// fingerprints, larger Bloom sketches; small = 4-bit attributes, 7-bit
/// fingerprints, 2 Bloom hashes.
CcfBuildParams LargeParams(CcfVariant variant);
CcfBuildParams SmallParams(CcfVariant variant);

/// \brief A CCF bound to its source table: knows how to translate
/// QueryPredicates into attribute-index predicates (including year binning).
struct BuiltCcf {
  std::unique_ptr<ConditionalCuckooFilter> filter;
  const TableData* source = nullptr;
  AttributeSchema schema;          // predicate columns in attribute order
  std::optional<RangeBinner> year_binner;  // set if a year column exists
  int rebuilds = 0;                // resize-and-rebuild count
  int compactions = 0;             // shard compactions (CRUD builds)

  /// Compiles query predicates on this table into a CCF predicate
  /// (equality → singleton; year range → binned in-list).
  Result<Predicate> CompilePredicates(
      const std::vector<const QueryPredicate*>& preds) const;

  /// Batched probe: out[i] = (keys[i], preds) membership. Compiles `preds`
  /// once and runs the filter's prefetched LookupBatch — the join-pushdown
  /// hot path (one predicate, millions of keys). Empty `preds` degrades to
  /// the batched key-only probe. Requires out.size() == keys.size().
  Status ProbeKeys(std::span<const uint64_t> keys,
                   const std::vector<const QueryPredicate*>& preds,
                   std::span<bool> out) const;
};

/// Builds the CCF for one table. Fails with CapacityError if the variant
/// cannot absorb the table even after max_rebuilds resizes (the paper's
/// Plain rows).
Result<BuiltCcf> BuildCcf(const TableData& table,
                          const CcfBuildParams& params);

/// Builds one CCF per dataset table with shared parameters.
Result<std::vector<BuiltCcf>> BuildAllCcfs(const ImdbDataset& dataset,
                                           const CcfBuildParams& params);

}  // namespace ccf

#endif  // CCF_JOIN_CCF_BUILDER_H_
