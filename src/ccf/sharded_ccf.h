// Sharded CCF: partitions keys across N independent ConditionalCuckooFilter
// shards behind the same interface. Each key is routed to exactly one shard
// by a hash that is uncorrelated with the in-shard addressing hash, so shard
// answers are bit-identical to a single filter holding that shard's rows.
//
// Concurrency model (the online serving core):
//   * Reads are lock-free and always safe: every query method pins the
//     filter's epoch domain, loads each shard's current table snapshot
//     pointer once for the whole call, and resolves against those immutable
//     snapshots. Readers never block on writers or resizes.
//   * Writes are serialized per shard by a writer mutex; writers to
//     DIFFERENT shards run fully in parallel (InsertParallel's N-way build).
//     In-place writes to a shard mutate its current snapshot, so readers of
//     that specific shard must be quiesced during in-place writes — the same
//     single-writer/multi-reader contract as the unsharded filter.
//   * Batched writes never block readers: BufferWrite stages rows into a
//     per-shard write buffer (readers see them immediately through an exact
//     overlay probe, so Insert→Contains semantics hold before the commit),
//     and CommitWrites builds the staged rows into a copy-on-write clone of
//     the shard's filter OFF the serving path, publishing the result with
//     the same epoch swap a resize uses. Readers stay pinned-lock-free
//     through the whole write cycle; only stagers/committers of the SAME
//     shard serialize with each other.
//   * Proactive resize: with ShardedCcfOptions::resize_watermark set, a
//     commit (or in-place insert) that leaves a shard's occupancy at or
//     above the watermark schedules a background doubling resize BEFORE any
//     insert fails, keeping CapacityError-triggered rebuilds off the tail
//     latency path.
//   * Resizes never block readers: ResizeShard rebuilds ONE shard at the new
//     geometry from the shard's retained row log (re-placing rows from the
//     hash memo, not re-hashing) and publishes the replacement via an atomic
//     epoch swap. Concurrent readers see either the complete old shard or
//     the complete new shard — never a partial table, never a false
//     negative — and the old table is freed only after every reader that
//     could hold it has unpinned. Insert/InsertParallel trigger these
//     per-shard resizes transparently on CapacityError instead of failing
//     the build.
//
// The batched lookup path prefetches the target shard's bucket pair per key
// and resolves through CcfBase::ContainsAddressed; shards share one salt but
// may have DIFFERENT bucket counts after per-shard resizes, so addressing is
// re-masked per target shard.
#ifndef CCF_CCF_SHARDED_CCF_H_
#define CCF_CCF_SHARDED_CCF_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/ccf_base.h"
#include "util/epoch.h"

namespace ccf {

/// Sharding parameters.
struct ShardedCcfOptions {
  /// Number of shards (rounded up to a power of two).
  int num_shards = 4;
  /// Threads used by InsertParallel and the striped CommitWrites; 0 means
  /// one per shard. Either way the count is capped at the shard count and
  /// at std::thread::hardware_concurrency().
  int build_threads = 0;
  /// Doubling resizes a single Insert/InsertParallel/CommitWrites call may
  /// trigger transparently per shard on CapacityError before surfacing the
  /// error. 0 disables online resize (failures surface exactly as before).
  int max_auto_resizes = 8;
  /// Load-factor watermark for PROACTIVE background resize: when a commit
  /// or in-place insert leaves a shard's occupancy / slots at or above this
  /// fraction, a doubling ResizeShardAsync is scheduled for that shard so
  /// the rebuild happens off the serving path before any insert fails
  /// (CapacityError doubling then stays a fallback, not the steady-state
  /// growth mechanism). 0 (the default) disables the policy — builds that
  /// assert bit-identical geometry trajectories rely on that. 0.85 is a
  /// good serving-side setting. Ignored on deserialized (log-less)
  /// filters, which cannot resize.
  double resize_watermark = 0.0;
  /// Dead-row fraction of a shard's retained row log at which a commit
  /// triggers an in-place compaction of that shard: the log is rewritten
  /// without erased rows and the shard's table is rebuilt (at its current
  /// geometry) from the survivors, clearing any erase residue the
  /// best-effort slot reclamation left behind. Bounds the log under churn
  /// so resizes rebuild from live rows only. <= 0 disables the policy
  /// (explicit Compact() still works). Ignored on deserialized (log-less)
  /// filters.
  double compact_watermark = 0.5;
  /// Auto-commit SIZE trigger for bursty writers: when a buffered write
  /// leaves a shard's staged overlay at or above this many rows, a
  /// background commit of THAT shard is scheduled (same futures machinery
  /// as the watermark resizes), folding the overlay into the probe-speed
  /// table without any explicit CommitWrites call. Staged rows stay
  /// query-visible throughout; the overlay scan just stays short. 0 (the
  /// default) disables the policy.
  size_t autocommit_pending_rows = 0;
  /// Auto-commit AGE trigger: when a buffered write finds the shard's
  /// oldest staged row older than this, a background commit of the shard
  /// is scheduled. Bounds how long a trickle of writes can linger in the
  /// overlay. Zero (the default) disables the policy. Checked on write —
  /// an idle shard holds its staged rows until the next write or an
  /// explicit CommitWrites/DrainMaintenance.
  std::chrono::milliseconds autocommit_interval{0};
};

/// \brief N independent CCF shards behind the ConditionalCuckooFilter
/// interface, with epoch-protected snapshots and shard-by-shard background
/// resize (see the concurrency model above).
class ShardedCcf : public ConditionalCuckooFilter {
 public:
  /// Creates `options.num_shards` shards of `variant`. `config.num_buckets`
  /// is the TOTAL bucket budget; each shard gets num_buckets / num_shards
  /// (at least 1, rounded up to a power of two). All shards share
  /// config.salt so a key's fingerprint is shard-independent (bucket
  /// indices are per-shard re-maskings of the same hash).
  static Result<std::unique_ptr<ShardedCcf>> Make(
      CcfVariant variant, const CcfConfig& config,
      const ShardedCcfOptions& options);

  /// Worker threads for a striped per-shard pass (InsertParallel and the
  /// striped CommitWrites): `requested` if positive, else `build_threads`
  /// if positive, else one per shard — capped at `num_shards` and at
  /// `hardware_threads` (treated as 1 when the platform reports 0). A
  /// deserialized filter's shard count comes from its blob and may be
  /// 4096, so the hardware cap is what bounds the threads one call starts.
  static int WorkerThreads(int requested, int build_threads, size_t num_shards,
                           unsigned hardware_threads);

  /// Teardown order matters and is part of the contract: (1) reap every
  /// in-flight watermark-resize / autocommit future (they capture `this`
  /// and touch the shards and the domain), and only then (2) synchronize
  /// the epoch domain so deferred reclamation hooks (write-buffer recycling
  /// references the shards) run while the shards are still alive. The
  /// domain itself is declared first, so it is destroyed last — after
  /// every TableHandle has released its object into it. Callers holding
  /// CommitWritesAsync / ResizeShardAsync futures must still join those
  /// before destroying the filter (std::future's destructor does, for
  /// async-launched tasks).
  ~ShardedCcf() override;

  /// Routes the row to its shard (one writer per shard; takes that shard's
  /// writer mutex). On CapacityError the shard transparently resizes
  /// (doubling, up to options.max_auto_resizes) and the row lands in the
  /// rebuilt shard. The in-place write itself follows the single-writer
  /// contract — readers of THIS shard must be quiesced while it runs (the
  /// header's writer rules); only the capacity-triggered rebuild+swap part
  /// is safe under concurrent readers.
  Status Insert(uint64_t key, std::span<const uint64_t> attrs) override;

  /// Bulk parallel build. `attrs` is row-major: row i occupies
  /// attrs[i*num_attrs, (i+1)*num_attrs). Rows are gathered per shard
  /// (insertion order within a shard follows the input order) and each
  /// shard runs its own batched two-wave InsertBatch under its writer
  /// mutex, with `num_threads` threads striping over shards (0 →
  /// options.build_threads). A shard that fails with CapacityError resizes
  /// itself (doubling, up to options.max_auto_resizes) and rebuilds from
  /// its retained row log, so well-provisioned auto-resize budgets make
  /// whole-build doubling retries unnecessary. Per-shard errors are
  /// aggregated deterministically: the error of the LOWEST failing shard
  /// index is returned (prefixed "shard N: "), independent of thread
  /// scheduling; remaining shards still finish, so the structure stays
  /// consistent.
  ///
  /// `hash_memo` follows ConditionalCuckooFilter::InsertBatch (two words
  /// per row), aligned to the INPUT row order: the shard route, the
  /// in-shard key hash, and the packed payload all depend only on the
  /// salt, so a memo filled here stays valid across bucket-doubling
  /// rebuilds of a fresh ShardedCcf with the same salt.
  Status InsertParallel(std::span<const uint64_t> keys,
                        std::span<const uint64_t> attrs, int num_threads = 0,
                        std::vector<uint64_t>* hash_memo = nullptr);

  /// The ConditionalCuckooFilter bulk-build entry: InsertParallel with the
  /// configured thread count.
  Status InsertBatch(std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs,
                     std::vector<uint64_t>* hash_memo = nullptr) override;

  /// Stages one row into its shard's write buffer WITHOUT touching the
  /// published table snapshot: readers are never blocked and never see a
  /// partial write, yet the row is immediately visible to every query
  /// method through the pending-row overlay (exact key + attribute
  /// matching, so no false negatives and no new false positives while
  /// staged). O(1) amortized; serializes with other writers of the same
  /// shard on its writer mutex. The row joins the table — and the retained
  /// row log — at the next CommitWrites.
  Status BufferWrite(uint64_t key, std::span<const uint64_t> attrs);

  /// Bulk BufferWrite: row i is (keys[i], attrs[i*num_attrs ..)), row-major
  /// like InsertParallel. Rows are gathered per shard and appended under
  /// each shard's writer mutex once (per-shard staging order follows the
  /// input order).
  Status BufferWriteBatch(std::span<const uint64_t> keys,
                          std::span<const uint64_t> attrs);

  /// Stages a tombstone for every row with this key AND this exact
  /// attribute vector (class delete) into the shard's write buffer, with
  /// the same release-publish visibility contract as BufferWrite: the
  /// matching committed and staged rows are hidden from every query method
  /// the moment this returns, other rows of the key are untouched, and no
  /// unrelated row can turn false-negative (erase records match on the
  /// exact key, so fingerprint aliases never inherit the exclusion). The
  /// next CommitWrites marks the row dead in the retained log (exact) and
  /// best-effort reclaims the table entry; entries that cannot be reclaimed
  /// in place (chained copies in saturated pairs, Bloom folds shared with
  /// other rows) remain as one-sided residue — extra false positives, never
  /// false negatives — until a compaction or resize rebuilds from live rows.
  /// Rejected on deserialized filters (no log to mark) and on oversized
  /// geometries (slot_bits > 64, no packed payload word to match).
  Status BufferErase(uint64_t key, std::span<const uint64_t> attrs);

  /// Atomically (from any reader's perspective) replaces rows (key,
  /// old_attrs) with (key, new_attrs): stages an erase record and an insert
  /// record published together with ONE release store, so no reader can
  /// observe the gap between them — the key never transiently disappears.
  /// Same restrictions as BufferErase.
  Status BufferUpdate(uint64_t key, std::span<const uint64_t> old_attrs,
                      std::span<const uint64_t> new_attrs);

  /// Publishes every shard's staged rows: per shard, clones the current
  /// filter (Clone shares the table snapshot), batch-inserts the pending
  /// rows into the clone — the clone copy-on-writes the table off the
  /// serving path — and installs the result via the same epoch swap a
  /// resize uses, then appends the rows to the retained row log and retires
  /// the drained buffer once no reader can hold it. Readers stay
  /// pinned-lock-free throughout and observe either (old table + overlay)
  /// or the new table, never a gap. A shard whose commit hits CapacityError
  /// transparently rebuilds at doubled geometry from its log (pending rows
  /// included) like Insert does; if the watermark policy is enabled, a
  /// post-commit occupancy at or above the watermark schedules a background
  /// doubling resize. Per-shard errors aggregate deterministically (lowest
  /// failing shard, "shard N: " prefix); a failed shard KEEPS its rows
  /// staged — still overlay-visible — so the caller can resize and retry.
  /// Works on deserialized filters too (no log to append to; the rows
  /// simply become part of the published tables).
  ///
  /// Striped: when more than one shard has staged records, `num_threads`
  /// workers (0 → options.build_threads, which 0-defaults to one per
  /// shard) drain the shards in parallel, InsertParallel-style — each
  /// worker commits a disjoint stripe under the per-shard writer mutexes.
  /// Error reporting stays deterministic regardless of thread count: the
  /// LOWEST failing shard's status wins, "shard N: "-prefixed. With one (or
  /// no) non-empty shard the commit runs inline on the calling thread.
  Status CommitWrites(int num_threads = 0);

  /// CommitWrites on a background thread; the future carries its Status.
  std::future<Status> CommitWritesAsync();

  /// Staged-but-uncommitted records across all shards (inserts AND erase
  /// tombstones; not yet counted by num_rows()).
  uint64_t pending_writes() const;

  /// Compacts EVERY shard unconditionally: rebuilds each shard's table at
  /// its current geometry from the live rows of its retained log (erased
  /// rows dropped) and rewrites the log to the survivors. The result is
  /// bit-identical to a from-scratch batched build of the surviving row
  /// set, so it clears all erase residue. Serializes with writers per
  /// shard; readers stay pinned-lock-free and see the swap atomically.
  /// Fails on deserialized (log-less) filters.
  Status Compact();

  /// Completed shard compactions (watermark-triggered and explicit).
  uint64_t num_compactions() const {
    return num_compactions_.load(std::memory_order_relaxed);
  }

  /// Completed autocommit-triggered background shard commits (see
  /// ShardedCcfOptions::autocommit_pending_rows / autocommit_interval).
  uint64_t num_autocommits() const {
    return num_autocommits_.load(std::memory_order_relaxed);
  }

  /// Total retained-log rows across shards, dead rows included
  /// (diagnostics; takes each shard's writer mutex briefly).
  uint64_t retained_log_rows() const;

  /// Retained-log rows marked dead by committed erases and not yet
  /// compacted away (diagnostics; takes each shard's writer mutex briefly).
  uint64_t dead_log_rows() const;

  /// Completed watermark-triggered background resizes (a subset of
  /// num_resizes()).
  uint64_t num_watermark_resizes() const {
    return num_watermark_resizes_.load(std::memory_order_relaxed);
  }

  /// Blocks until every scheduled watermark resize has finished (their
  /// Statuses are advisory and dropped — the policy retries at the next
  /// commit if a background attempt failed). Deterministic tests and
  /// drain-before-measure tooling use this; serving callers never need it.
  void DrainMaintenance();

  /// Rebuilds shard `shard` at `new_num_buckets` buckets (0 → double the
  /// shard's current count) from its retained row log, publishing the
  /// replacement via epoch swap. Readers keep probing the old snapshot
  /// until the swap and are never blocked; the old table is reclaimed once
  /// the last reader unpins. Serializes with other writers of the shard.
  /// The rebuilt shard is bit-identical to a from-scratch batched build of
  /// the shard's rows at the new geometry. Fails on deserialized filters
  /// (the row log is not serialized) and on out-of-range shard indices.
  Status ResizeShard(int shard, uint64_t new_num_buckets = 0);

  /// ResizeShard on a background thread; the future carries its Status.
  std::future<Status> ResizeShardAsync(int shard,
                                       uint64_t new_num_buckets = 0);

  bool ContainsKey(uint64_t key) const override;
  bool Contains(uint64_t key, const Predicate& pred) const override;
  Status LookupBatch(std::span<const uint64_t> keys,
                     std::span<const Predicate> preds,
                     std::span<bool> out) const override;
  void ContainsKeyBatch(std::span<const uint64_t> keys,
                        std::span<bool> out) const override;

  /// Derives one key filter per shard, routed like the source filter. The
  /// per-shard derived filters alias the shard snapshots (no table copy)
  /// and stay valid even if a later resize retires the shard object.
  /// Snapshot semantics: the derivation covers COMMITTED rows only —
  /// staged-but-uncommitted rows join derived filters after the next
  /// CommitWrites (the direct query methods see them immediately).
  Result<std::unique_ptr<KeyFilter>> PredicateQuery(
      const Predicate& pred) const override;

  uint64_t SizeInBits() const override;
  double LoadFactor() const override;
  uint64_t num_entries() const override;
  uint64_t num_rows() const override;

  /// The per-shard configuration AT CONSTRUCTION (num_buckets is the
  /// initial per-shard value; shards may have grown since — see
  /// shard(i).config() for a shard's current geometry). Returned from an
  /// immutable member, so the reference stays valid across resizes and is
  /// safe to read concurrently with them.
  const CcfConfig& config() const override { return shard_config_; }
  CcfVariant variant() const override { return variant_; }

  /// Completed per-shard resizes over the filter's lifetime (auto-triggered
  /// and explicit).
  uint64_t num_resizes() const {
    return num_resizes_.load(std::memory_order_relaxed);
  }

  /// Whether online resize is available: true for filters built in-process
  /// (which retain their row log), false after Deserialize (serialized
  /// blobs carry tables, not rows).
  bool resizable() const { return resizable_; }

  /// Serialized-blob magic ("SCF2", bumped with the aligned word-array
  /// format); ConditionalCuckooFilter::Deserialize dispatches here when it
  /// leads a blob.
  static constexpr uint32_t kMagic = 0x53434632;

  /// Serializes the COMMITTED state (the published shard tables). Staged
  /// rows are not part of any table yet and are not serialized — call
  /// CommitWrites first if they must be captured. Shard blobs are 8-byte
  /// aligned within the container so alias-mode loads work through it.
  std::string Serialize() const override;
  /// With `alias` non-null, shard tables alias the blob (zero-copy); see
  /// ConditionalCuckooFilter::Deserialize(data, mapping).
  static Result<std::unique_ptr<ConditionalCuckooFilter>> Deserialize(
      std::string_view data, const AliasMapping* alias = nullptr);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// The shard's CURRENT filter. Quiescent-use accessor (tests, stats): the
  /// reference is valid until the shard is next resized.
  const ConditionalCuckooFilter& shard(int i) const {
    return *shards_[static_cast<size_t>(i)]->handle.Current();
  }

  /// Shard index of a key (uncorrelated with in-shard addressing).
  size_t ShardOf(uint64_t key) const {
    return static_cast<size_t>(shard_hasher_.Hash(key, 0) & shard_mask_);
  }

 private:
  /// \brief One shard's staged-but-uncommitted rows: the epoch-protected
  /// pending-row overlay.
  ///
  /// Publication protocol (the reason readers are wait-free): storage is
  /// sized at construction and never reallocated; the writer (holding the
  /// shard's writer mutex) writes a row's words and THEN publishes it with
  /// a release store of the new size, so a reader that acquires `size()`
  /// sees every word of rows [0, size). A full buffer is replaced wholesale
  /// — copy rows into a bigger block, swap the shard's pending pointer, and
  /// retire the old block into the epoch domain (recycled through the
  /// shard's spare slot once no reader can hold it). Rows use the retained
  /// row log's layout: keys + row-major attrs + two geometry-independent
  /// memo words per row, so a commit feeds them straight into InsertBatch's
  /// memo path and appends them to the log verbatim. Each record also
  /// carries an op tag: kOpInsert stages a row, kOpErase stages a tombstone
  /// for the (key, packed payload) class. num_erases_ is stored (relaxed)
  /// BEFORE the release size store, so a reader that acquires size() n and
  /// then reads num_erases() can never UNDERcount the erase records in
  /// [0, n) — overcounting (a concurrent appender mid-publish) only sends
  /// the reader down the exact slow path unnecessarily.
  class WriteBuffer {
   public:
    enum : uint8_t { kOpInsert = 0, kOpErase = 1 };

    WriteBuffer(size_t capacity, size_t num_attrs)
        : capacity_(capacity),
          num_attrs_(num_attrs),
          keys_(capacity),
          attrs_(capacity * num_attrs),
          memo_(2 * capacity),
          ops_(capacity) {}

    size_t capacity() const { return capacity_; }
    /// Reader-side row count; rows [0, size) are fully published.
    size_t size() const { return size_.load(std::memory_order_acquire); }
    /// Writer-side count (callers hold the shard's writer mutex).
    size_t size_unsync() const {
      return size_.load(std::memory_order_relaxed);
    }

    /// Writes record size_unsync() + offset WITHOUT publishing it
    /// (writer-side; requires size_unsync() + offset < capacity). Pair
    /// with PublishStaged: the staged group becomes visible with ONE
    /// release store, so a reader observes all of its records or none —
    /// the multi-record generalization of the update-as-atomic-swap
    /// pattern (a RangeCcf row's η dyadic label records ride this; a
    /// partially-visible level set would answer range queries false).
    void Stage(size_t offset, uint64_t key, std::span<const uint64_t> attrs,
               uint64_t key_hash, uint64_t payload,
               uint8_t op = kOpInsert) {
      WriteRecord(size_.load(std::memory_order_relaxed) + offset, key, attrs,
                  key_hash, payload, op);
    }

    /// Publishes `count` staged records atomically. `staged_erases` (the
    /// kOpErase records among them) is added BEFORE the release size
    /// store, preserving the reader's never-undercount contract.
    void PublishStaged(size_t count, size_t staged_erases = 0) {
      if (staged_erases != 0) {
        num_erases_.store(
            num_erases_.load(std::memory_order_relaxed) + staged_erases,
            std::memory_order_relaxed);
      }
      size_.store(size_.load(std::memory_order_relaxed) + count,
                  std::memory_order_release);
    }

    /// Appends one record (writer-side; requires size_unsync() < capacity).
    void Append(uint64_t key, std::span<const uint64_t> attrs,
                uint64_t key_hash, uint64_t payload,
                uint8_t op = kOpInsert) {
      Stage(0, key, attrs, key_hash, payload, op);
      PublishStaged(1, op == kOpErase ? 1 : 0);
    }

    /// Appends erase(old) + insert(new) published by ONE release store, so
    /// readers observe the update as an atomic swap — never the erased-only
    /// gap (writer-side; requires size_unsync() + 2 <= capacity).
    void AppendUpdate(uint64_t key, std::span<const uint64_t> old_attrs,
                      uint64_t old_hash, uint64_t old_payload,
                      std::span<const uint64_t> new_attrs, uint64_t new_hash,
                      uint64_t new_payload) {
      Stage(0, key, old_attrs, old_hash, old_payload, kOpErase);
      Stage(1, key, new_attrs, new_hash, new_payload, kOpInsert);
      PublishStaged(2, 1);
    }

    /// Copies the first `n` records of `from` (builds the replacement block
    /// before it is published; writer-side).
    void Adopt(const WriteBuffer& from, size_t n) {
      std::copy_n(from.keys_.begin(), n, keys_.begin());
      std::copy_n(from.attrs_.begin(), n * num_attrs_, attrs_.begin());
      std::copy_n(from.memo_.begin(), 2 * n, memo_.begin());
      std::copy_n(from.ops_.begin(), n, ops_.begin());
      size_t erases = 0;
      for (size_t i = 0; i < n; ++i) erases += from.ops_[i] == kOpErase;
      num_erases_.store(erases, std::memory_order_relaxed);
      size_.store(n, std::memory_order_relaxed);
    }

    /// Reuse a recycled block (writer-side; no reader can hold it anymore).
    void Reset() {
      num_erases_.store(0, std::memory_order_relaxed);
      size_.store(0, std::memory_order_relaxed);
    }

    /// Erase records among the published rows; read AFTER an acquire of
    /// size() — never undercounts [0, size), may transiently overcount.
    size_t num_erases() const {
      return num_erases_.load(std::memory_order_relaxed);
    }
    size_t num_erases_unsync() const {
      return num_erases_.load(std::memory_order_relaxed);
    }

    /// Per-record reads (valid for published records, or writer-side).
    uint8_t op(size_t i) const { return ops_[i]; }
    uint64_t key(size_t i) const { return keys_[i]; }
    uint64_t key_hash(size_t i) const { return memo_[2 * i]; }
    uint64_t payload(size_t i) const { return memo_[2 * i + 1]; }
    std::span<const uint64_t> attrs_row(size_t i) const {
      return {attrs_.data() + i * num_attrs_, num_attrs_};
    }

    /// Overlay probes (reader-side, any thread, no locks): exact matching
    /// over published records — a staged row (k, a) answers true for (k, P)
    /// iff P(a) AND no later-staged erase record killed its (k, payload)
    /// class, which is precisely the no-false-negative contract and
    /// introduces no approximation of its own. With no erases in the block
    /// the scan degenerates to the original forward pass. (Whether staged
    /// erases hide COMMITTED rows is the owning filter's job — see
    /// ShardedCcf::ResolveKeyWithOps.)
    bool ContainsKey(uint64_t key) const { return ContainsKey(key, size()); }
    /// ContainsKey over records [0, n) only; `n` must not exceed a size()
    /// the caller read (ResolveKeyWithOps bounds its every overlay read by
    /// one such snapshot).
    bool ContainsKey(uint64_t key, size_t n) const {
      if (num_erases() == 0) {
        for (size_t i = 0; i < n; ++i) {
          if (keys_[i] == key) return true;
        }
        return false;
      }
      // Backward: an erase record is seen before every insert it kills, so
      // a dead-payload set collected on the way down decides liveness; a
      // re-insert staged AFTER an erase is visited first and stays live.
      std::vector<uint64_t> dead;
      for (size_t i = n; i-- > 0;) {
        if (keys_[i] != key) continue;
        uint64_t p = memo_[2 * i + 1];
        if (ops_[i] == kOpErase) {
          dead.push_back(p);
          continue;
        }
        if (std::find(dead.begin(), dead.end(), p) == dead.end()) return true;
      }
      return false;
    }
    bool Contains(uint64_t key, const Predicate& pred) const {
      return Contains(key, pred, size());
    }
    /// Contains over records [0, n) only (see ContainsKey(key, n)).
    bool Contains(uint64_t key, const Predicate& pred, size_t n) const {
      if (num_erases() == 0) {
        for (size_t i = 0; i < n; ++i) {
          if (keys_[i] == key &&
              pred.Matches(std::span<const uint64_t>(
                  attrs_.data() + i * num_attrs_, num_attrs_))) {
            return true;
          }
        }
        return false;
      }
      std::vector<uint64_t> dead;
      for (size_t i = n; i-- > 0;) {
        if (keys_[i] != key) continue;
        uint64_t p = memo_[2 * i + 1];
        if (ops_[i] == kOpErase) {
          dead.push_back(p);
          continue;
        }
        if (std::find(dead.begin(), dead.end(), p) == dead.end() &&
            pred.Matches(std::span<const uint64_t>(
                attrs_.data() + i * num_attrs_, num_attrs_))) {
          return true;
        }
      }
      return false;
    }

    /// Record views over the first `n` records (writer-side, for commit).
    std::span<const uint64_t> keys(size_t n) const {
      return {keys_.data(), n};
    }
    std::span<const uint64_t> attrs(size_t n) const {
      return {attrs_.data(), n * num_attrs_};
    }
    std::span<const uint64_t> memo(size_t n) const {
      return {memo_.data(), 2 * n};
    }

   private:
    void WriteRecord(size_t n, uint64_t key, std::span<const uint64_t> attrs,
                     uint64_t key_hash, uint64_t payload, uint8_t op) {
      keys_[n] = key;
      std::copy(attrs.begin(), attrs.end(),
                attrs_.begin() + static_cast<ptrdiff_t>(n * num_attrs_));
      memo_[2 * n] = key_hash;
      memo_[2 * n + 1] = payload;
      ops_[n] = op;
    }

    const size_t capacity_;
    const size_t num_attrs_;
    std::atomic<size_t> size_{0};
    /// Erase records among records [0, size_); see the class comment for
    /// the store-before-publish ordering contract.
    std::atomic<size_t> num_erases_{0};
    std::vector<uint64_t> keys_;
    std::vector<uint64_t> attrs_;  // row-major
    std::vector<uint64_t> memo_;   // 2 words per record
    std::vector<uint8_t> ops_;     // kOpInsert / kOpErase per record
  };

  /// Per-shard serving state: the epoch-swappable filter, the writer lock,
  /// the retained row log that resizes rebuild from, and the pending
  /// write-buffer overlay. The log mirrors every accepted row in arrival
  /// order together with its two geometry-independent memo words
  /// (salt-keyed key hash + packed payload), so a rebuild re-masks instead
  /// of re-hashing.
  struct Shard {
    Shard(EpochDomain* domain, std::unique_ptr<ConditionalCuckooFilter> f)
        : handle(domain, std::move(f)) {}
    ~Shard() {
      delete pending.load(std::memory_order_relaxed);
      delete spare.load(std::memory_order_relaxed);
    }
    TableHandle<ConditionalCuckooFilter> handle;
    std::mutex writer_mu;
    std::vector<uint64_t> keys;   // guarded by writer_mu
    std::vector<uint64_t> attrs;  // row-major, guarded by writer_mu
    std::vector<uint64_t> memo;   // 2 words per row, guarded by writer_mu
    /// Tombstone bookkeeping over the log (all guarded by writer_mu): a
    /// committed erase marks its rows dead here EXACTLY — the log always
    /// knows the true live set, whatever the best-effort table reclamation
    /// managed — and compaction rewrites the log from the survivors.
    std::vector<uint8_t> dead;  // parallel to keys; 1 = erased row
    size_t dead_count = 0;
    /// key → log row indices, built lazily by the first CRUD commit and
    /// maintained by LogAppendRows/LogTruncate afterwards.
    std::unordered_map<uint64_t, std::vector<uint32_t>> row_index;
    bool index_built = false;
    /// Staged rows (null when none): readers load under an epoch pin;
    /// writers mutate/swap under writer_mu. Swapped-out blocks are retired
    /// into the epoch domain and recycled through `spare`.
    std::atomic<WriteBuffer*> pending{nullptr};
    /// Single-slot recycle stash fed by the epoch retire hook.
    std::atomic<WriteBuffer*> spare{nullptr};
    /// Guards against stacking duplicate watermark resizes for this shard.
    std::atomic<bool> resize_scheduled{false};
    /// Guards against stacking duplicate auto-commits for this shard.
    std::atomic<bool> commit_scheduled{false};
    /// When the shard's overlay went non-empty (guarded by writer_mu;
    /// meaningful only while the overlay has rows and the age trigger is
    /// enabled).
    std::chrono::steady_clock::time_point first_staged{};
  };

  ShardedCcf(std::vector<std::unique_ptr<ConditionalCuckooFilter>> shards,
             ShardedCcfOptions options);

  /// One resize attempt at the given geometry; caller holds writer_mu.
  Status ResizeShardLocked(Shard& shard, uint64_t new_num_buckets);
  /// Doubling-retry loop around ResizeShardLocked (auto-resize path);
  /// caller holds writer_mu and has just seen CapacityError.
  Status GrowShardLocked(Shard& shard, Status capacity_error);

  /// A pending buffer with room for `rows_needed` more rows, swapping in a
  /// grown (or recycled) block if necessary; caller holds writer_mu.
  WriteBuffer* PendingWithRoom(Shard& shard, size_t rows_needed);
  /// Retires a swapped-out buffer into the epoch domain; reclamation
  /// recycles it through the shard's spare slot.
  void RetireBuffer(Shard& shard, WriteBuffer* old);
  /// Commits shard `s`'s staged records (see CommitWrites); caller holds
  /// writer_mu. Dispatches to CommitShardCrudLocked when the pending block
  /// carries erase records.
  Status CommitShardLocked(size_t s, Shard& shard);
  /// The erase-aware commit: applies the staged records IN ORDER against a
  /// copy-on-write clone (insert runs via InsertBatch, tombstones via
  /// best-effort native slot deletion), then — only after the clone
  /// publishes — marks dead log rows and appends surviving inserts; caller
  /// holds writer_mu.
  Status CommitShardCrudLocked(size_t s, Shard& shard);
  /// Appends rows to the shard's retained log, keeping the dead vector and
  /// (if built) the row index in sync; caller holds writer_mu.
  void LogAppendRows(Shard& shard, std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs,
                     std::span<const uint64_t> memo);
  /// Drops log rows [old_rows, end) (rollback of a failed append); caller
  /// holds writer_mu.
  void LogTruncate(Shard& shard, size_t old_rows);
  /// Builds the key → log rows index on first CRUD use; caller holds
  /// writer_mu.
  void EnsureLogIndex(Shard& shard);
  /// Rebuilds the shard at its CURRENT geometry from live log rows and
  /// rewrites the log to the survivors; caller holds writer_mu.
  Status CompactShardLocked(Shard& shard);
  /// Runs CompactShardLocked when the dead fraction of the log crosses
  /// options_.compact_watermark; caller holds writer_mu.
  void MaybeCompactShard(Shard& shard);
  /// Schedules a background doubling resize if the shard's occupancy is at
  /// or above the watermark; caller holds writer_mu.
  void MaybeScheduleWatermarkResize(size_t s, Shard& shard);
  /// Schedules a background commit of shard `s` when its staged overlay
  /// crosses the autocommit size or age trigger; caller holds writer_mu
  /// and has just appended to the overlay.
  void MaybeScheduleAutoCommit(size_t s, Shard& shard);
  /// Starts `task` on a background thread and keeps its future for
  /// DrainMaintenance, reaping the futures of finished tasks first so the
  /// list stays small. Takes maintenance_mu_.
  void LaunchMaintenance(std::function<Status()> task);

  /// Exact reader slow path for a shard whose overlay stages erase records:
  /// staged liveness via the op-aware overlay probe, committed rows via the
  /// exclusion-filtered addressed probes (tombstoned classes hidden).
  /// `pred` null means key-only. Caller holds an epoch pin covering both
  /// loaded pointers.
  bool ResolveKeyWithOps(const CcfBase* base, const WriteBuffer* overlay,
                         uint64_t key, const Predicate* pred) const;

  /// Every shard's current snapshot, loaded once under the caller's pin —
  /// THE way batch read paths bind the shard set.
  std::vector<const CcfBase*> LoadBases(const EpochDomain::Guard& guard) const;
  /// Every shard's pending overlay, loaded once under the same pin; shards
  /// with no staged rows are null so the (common) no-pending batch pays one
  /// pointer load per shard and nothing else.
  std::vector<const WriteBuffer*> LoadOverlays() const;

  /// Resolves one shard's gathered broadcast keys against (base, overlay).
  /// `pred` null means key-only; results land at out[pos[j]].
  Status ResolveShardBroadcast(const CcfBase* base, const WriteBuffer* overlay,
                               std::span<const uint64_t> keys,
                               std::span<const size_t> pos,
                               const Predicate* pred, bool* out) const;

  /// Runs work(s) exactly once per shard, striped modulo `threads` workers
  /// (threads <= 1 ⇒ inline loop on the caller). Shared by InsertParallel
  /// and the striped CommitWrites.
  void ForEachShardParallel(int threads,
                            const std::function<void(size_t)>& work);

  /// Declared first so it is destroyed LAST: retired shard filters are
  /// freed by the domain's destructor after the handles are gone.
  mutable EpochDomain domain_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardedCcfOptions options_;
  /// Immutable copies taken at construction so config()/variant() never
  /// dereference a swappable shard object (a concurrent resize of shard 0
  /// could retire it mid-read).
  CcfConfig shard_config_;
  CcfVariant variant_;
  uint64_t shard_mask_ = 0;
  Hasher shard_hasher_;
  std::atomic<uint64_t> num_resizes_{0};
  std::atomic<uint64_t> num_watermark_resizes_{0};
  std::atomic<uint64_t> num_compactions_{0};
  std::atomic<uint64_t> num_autocommits_{0};
  /// In-flight watermark resizes (futures must be joined before the shards
  /// they reference die); reaped opportunistically, drained on destruction.
  mutable std::mutex maintenance_mu_;
  std::vector<std::future<Status>> maintenance_;  // guarded by maintenance_mu_
  bool resizable_ = true;
};

}  // namespace ccf

#endif  // CCF_CCF_SHARDED_CCF_H_
