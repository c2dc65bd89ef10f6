// Range-predicate CCF via dyadic decomposition — §9.1's second method. Each
// row is inserted η = max_level + 1 times, once per dyadic interval
// containing its range-column value; a range query probes the O(log range)
// covering intervals. Compared to binning: no fixed-resolution error, at
// the cost of η× insertions and larger sketches.
//
// RangeCcf is a full ConditionalCuckooFilter, so everything built for
// equality filters applies to range filters unchanged:
//
//   * Batched range lookups: CompileRange precomputes the dyadic cover
//     ONCE per batch (the same shape as the precompiled Bloom probes of
//     the equality fast path) and ContainsInRangeBatch feeds the compiled
//     predicate to the inner filter's broadcast LookupBatch — the
//     two-pass prefetched batch pipeline — bit-identical
//     to a scalar ContainsInRange loop.
//   * Sharding + live writes: MakeSharded wraps a ShardedCcf, so range
//     filters inherit epoch-protected snapshot reads and the write-buffer
//     overlay. BufferWrite stages a row's η dyadic
//     labels as ONE atomically-published group — no reader can observe a
//     partial level set, so staged rows never produce range-query false
//     negatives.
//   * Serialization: Serialize/Deserialize (alias-mode included) wrap the
//     inner blob with an "RCF1" header plus the retained row log, so the
//     FilterCatalog tiers range filters like any other entry.
//
// All-or-nothing insertion: a row either has ALL of its η labels in the
// filter or none of them. A mid-row CapacityError rolls back by rebuilding
// the inner filter from the retained row log (failure-path-only cost), so
// a failed insert can never leave a level-gapped row behind — the gap
// would turn into range-query false negatives, the one thing a CCF must
// never produce (Theorem 3).
#ifndef CCF_CCF_RANGE_CCF_H_
#define CCF_CCF_RANGE_CCF_H_

#include <memory>
#include <mutex>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/sharded_ccf.h"
#include "predicate/dyadic.h"

namespace ccf {

/// \brief A range predicate compiled once per batch: the clamped bounds,
/// the dyadic cover size, and the ready-to-probe inner predicate (cover
/// labels as an in-list on the range column, conjoined with any other
/// terms). Build with RangeCcf::CompileRange; valid for the filter that
/// compiled it (labels depend on its range column and max_level).
struct CompiledRangePredicate {
  /// The effective (clamped) query bounds; hi is capped into the dyadic
  /// domain so open-ended queries (hi = UINT64_MAX) stay answerable.
  uint64_t lo = 0;
  uint64_t hi = 0;
  /// Number of covering intervals (O(log range) diagnostics). 0 for an
  /// empty range (pred then matches nothing) AND for a range too wide for
  /// the filter's max_level (cover past kMaxDyadicCoverIntervals; pred
  /// then degrades to the `other` terms alone — a conservative superset,
  /// so no false negatives, just no range pruning).
  size_t cover_size = 0;
  /// The translated inner-schema predicate.
  Predicate pred;
};

/// \brief CCF supporting range predicates on one designated column.
///
/// The wrapped CCF sees the range column's value replaced by dyadic
/// interval labels; other columns pass through. A level-0 label equals the
/// raw value (level 0 in the top bits is zero), so equality queries on the
/// range column remain available through the ordinary
/// ConditionalCuckooFilter interface — Contains/LookupBatch accept
/// raw-schema predicates and drop out-of-domain range-column values from
/// in-lists (such rows can never have been inserted).
class RangeCcf final : public ConditionalCuckooFilter {
 public:
  /// Single-table inner filter.
  /// \param range_attr_index which attribute column carries range queries
  /// \param max_level dyadic levels (η = max_level + 1 insertions per row)
  static Result<std::unique_ptr<RangeCcf>> Make(CcfVariant variant,
                                                const CcfConfig& config,
                                                int range_attr_index,
                                                int max_level);

  /// Sharded inner filter: epoch-protected reads and live writes through
  /// the staged overlay — the serving-tier configuration.
  /// `config.num_buckets` is the total budget (ShardedCcf::Make semantics).
  static Result<std::unique_ptr<RangeCcf>> MakeSharded(
      CcfVariant variant, const CcfConfig& config, int range_attr_index,
      int max_level, const ShardedCcfOptions& options);

  // --- Range API -----------------------------------------------------------

  /// Compiles [lo, hi] (plus optional equality terms on other columns)
  /// into the inner-schema predicate, computing the dyadic cover ONCE so a
  /// batch probe does no per-key cover work. `hi` beyond the dyadic domain
  /// clamps to kDyadicDomainSize - 1 (no inserted value can exceed it);
  /// an empty or fully-out-of-domain range compiles to a matches-nothing
  /// predicate. InvalidArgument only if `other` carries out-of-schema
  /// terms.
  Result<CompiledRangePredicate> CompileRange(
      uint64_t lo, uint64_t hi, const Predicate& other = Predicate()) const;

  /// Key + conjunction of: equality terms on other columns (given via
  /// `other`, may be empty) and range [lo, hi] on the range column.
  /// No false negatives over inserted (and staged) rows.
  bool ContainsInRange(uint64_t key, uint64_t lo, uint64_t hi,
                       const Predicate& other = Predicate()) const;

  /// Batched range lookup: out[i] = ContainsInRange(keys[i], pred.lo,
  /// pred.hi, <pred's other terms>), bit-identical to the scalar loop.
  /// The compiled predicate broadcasts to every key, riding the inner
  /// filter's prefetched two-pass batch pipeline. Safe for concurrent
  /// readers (sharded inner: staged rows visible, epoch-protected).
  Status ContainsInRangeBatch(std::span<const uint64_t> keys,
                              const CompiledRangePredicate& pred,
                              std::span<bool> out) const;

  // --- ConditionalCuckooFilter interface -----------------------------------

  /// Inserts one row all-or-nothing: η inner insertions (one per dyadic
  /// level); a mid-row CapacityError rolls the already-inserted labels
  /// back by rebuilding from the retained row log, so the filter never
  /// holds a partial level set. Internal if the rollback rebuild itself
  /// fails (the error message says whether partial state remains).
  /// InvalidArgument when the range-column value is >= kDyadicDomainSize.
  Status Insert(uint64_t key, std::span<const uint64_t> attrs) override;

  /// Bulk insertion with the same all-or-nothing contract at BATCH
  /// granularity: on any failure the whole batch is rolled back (rebuild
  /// from the log, which excludes it). `hash_memo` is validated for shape
  /// but not consumed — the inner build hashes the η-expanded rows, whose
  /// memo does not line up with the caller's per-row view.
  Status InsertBatch(std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs,
                     std::vector<uint64_t>* hash_memo = nullptr) override;

  /// Clones object + row log; the inner table is shared copy-on-write
  /// (plain inner only — a sharded inner returns InvalidArgument, like
  /// ShardedCcf::Clone). NOTE: the log copy makes this O(rows), not
  /// O(object) — fine for the catalog's clone-publish write path, not for
  /// per-row staging.
  Result<std::unique_ptr<ConditionalCuckooFilter>> Clone() const override;

  bool ContainsKey(uint64_t key) const override {
    return inner_->ContainsKey(key);
  }

  /// Equality/in-list query on the RAW schema: range-column values are
  /// translated to their level-0 labels (an identity mapping in-domain;
  /// out-of-domain values are dropped — they cannot have been inserted).
  bool Contains(uint64_t key, const Predicate& pred) const override;

  /// Batched Contains with the same raw-schema translation, resolved
  /// through the inner batch pipeline. For RANGE predicates use
  /// CompileRange + ContainsInRangeBatch — cover labels must not be
  /// re-translated.
  Status LookupBatch(std::span<const uint64_t> keys,
                     std::span<const Predicate> preds,
                     std::span<bool> out) const override;

  void ContainsKeyBatch(std::span<const uint64_t> keys,
                        std::span<bool> out) const override {
    inner_->ContainsKeyBatch(keys, out);
  }

  /// Predicate-only query on the raw schema (translated like Contains).
  Result<std::unique_ptr<KeyFilter>> PredicateQuery(
      const Predicate& pred) const override;

  uint64_t SizeInBits() const override { return inner_->SizeInBits(); }
  double LoadFactor() const override { return inner_->LoadFactor(); }
  /// Inner entries — η× the row count, the size tax of §9.1's method.
  uint64_t num_entries() const override { return inner_->num_entries(); }
  /// ROWS accepted (original rows, not η-expanded entries).
  uint64_t num_rows() const override;

  const CcfConfig& config() const override { return inner_->config(); }
  CcfVariant variant() const override { return inner_->variant(); }

  // --- Live writes (sharded inner only) ------------------------------------

  /// Stages one row's η dyadic labels into the sharded inner's write
  /// buffer as ONE atomically-published group: all labels route to the
  /// same shard (routing hashes the key), and the group becomes visible
  /// with a single release store — a concurrent range reader sees the
  /// whole level set or none of it, never a false-negative-producing gap.
  /// Invalid on a non-sharded inner.
  Status BufferWrite(uint64_t key, std::span<const uint64_t> attrs);

  /// Bulk BufferWrite (row-major attrs), one atomic group per row.
  Status BufferWriteBatch(std::span<const uint64_t> keys,
                          std::span<const uint64_t> attrs);

  /// Publishes staged rows into the inner tables (sharded inner only).
  Status CommitWrites(int num_threads = 0);

  /// Staged-but-uncommitted inner records (η per staged row); 0 for a
  /// non-sharded inner.
  uint64_t pending_writes() const;

  /// Blocks until scheduled background maintenance (watermark resizes,
  /// autocommits) finishes; no-op for a non-sharded inner.
  void DrainMaintenance();

  /// The sharded inner, or null when built with Make (single-table). The
  /// FilterCatalog uses this to flush staged rows before demotion.
  ShardedCcf* sharded_inner() { return sharded_; }
  const ShardedCcf* sharded_inner() const { return sharded_; }

  // --- Serialization -------------------------------------------------------

  /// Serialized-blob magic ("RCF1");
  /// ConditionalCuckooFilter::Deserialize dispatches here.
  static constexpr uint32_t kMagic = 0x52434631;

  /// Header (range column, max_level, row count) + retained row log +
  /// 8-aligned inner blob. The log rides along so a deserialized filter
  /// keeps the all-or-nothing rollback and stays catalog-mutable. A
  /// sharded inner serializes COMMITTED state only — CommitWrites first
  /// if staged rows must be captured (the catalog's demotion path does).
  std::string Serialize() const override;

  /// With `alias` non-null the INNER tables alias the blob zero-copy; the
  /// (η-times-smaller) row log is copied out either way.
  static Result<std::unique_ptr<ConditionalCuckooFilter>> Deserialize(
      std::string_view data, const AliasMapping* alias = nullptr);

  const ConditionalCuckooFilter& inner() const { return *inner_; }
  int range_attr() const { return range_attr_; }
  int max_level() const { return max_level_; }

 private:
  RangeCcf(std::unique_ptr<ConditionalCuckooFilter> inner,
           int range_attr_index, int max_level);

  /// Validates shape and expands one raw row into its η label rows
  /// (appended to keys/attrs, row-major).
  Status ExpandRow(uint64_t key, std::span<const uint64_t> attrs,
                   std::vector<uint64_t>* keys,
                   std::vector<uint64_t>* out_attrs) const;

  /// Raw-schema predicate → inner label schema (see Contains).
  Predicate TranslatePredicate(const Predicate& pred) const;

  /// Rollback: rebuilds a fresh inner (same construction parameters) from
  /// the η-expanded row log and swaps it in, restoring the exact pre-
  /// failure row set.
  Status RebuildFromLog();

  /// Appends an accepted row to the retained log.
  void LogRow(uint64_t key, std::span<const uint64_t> attrs);

  std::unique_ptr<ConditionalCuckooFilter> inner_;
  /// Downcast cache: inner_ when sharded, else null.
  ShardedCcf* sharded_ = nullptr;
  int range_attr_;
  int max_level_;

  /// Construction parameters retained for the rollback rebuild.
  CcfVariant make_variant_;
  CcfConfig make_config_;
  ShardedCcfOptions sharded_options_;

  /// Guards the row log and num_rows_: BufferWrite keeps ShardedCcf's
  /// concurrent-stager contract, so concurrent log appends must not race.
  /// Query paths never take it.
  mutable std::mutex log_mu_;
  uint64_t num_rows_ = 0;
  /// Retained row log of accepted RAW rows (keys + row-major attrs):
  /// the rollback source and the serialized row record.
  std::vector<uint64_t> log_keys_;
  std::vector<uint64_t> log_attrs_;
};

}  // namespace ccf

#endif  // CCF_CCF_RANGE_CCF_H_
