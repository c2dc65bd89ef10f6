#include "ccf/sharded_ccf.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "cuckoo/cuckoo_filter.h"
#include "util/batch_pipeline.h"
#include "util/math_util.h"

namespace ccf {

namespace {

constexpr uint32_t kShardedMagic = ShardedCcf::kMagic;

// Salt stream for shard routing; must stay uncorrelated with the in-shard
// addressing hash (Hash(key, 0) under config.salt), which the distinct salt
// guarantees.
constexpr uint64_t kShardSaltMix = 0x517cc1b727220a95ull;

/// \brief Key filter over per-shard derived filters, routed like the source.
class ShardedKeyFilter : public KeyFilter {
 public:
  ShardedKeyFilter(std::vector<std::unique_ptr<KeyFilter>> shards,
                   Hasher shard_hasher, uint64_t shard_mask)
      : shards_(std::move(shards)),
        shard_hasher_(shard_hasher),
        shard_mask_(shard_mask) {}

  bool Contains(uint64_t key) const override {
    return shards_[shard_hasher_.Hash(key, 0) & shard_mask_]->Contains(key);
  }

  void ContainsBatch(std::span<const uint64_t> keys,
                     std::span<bool> out) const override {
    // Gather per shard, delegate to each derived filter's own batched
    // (prefetched) path, scatter back — mirroring ShardedCcf::LookupBatch.
    CCF_DCHECK(out.size() == keys.size());
    std::vector<std::vector<uint64_t>> shard_keys(shards_.size());
    std::vector<std::vector<size_t>> shard_pos(shards_.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      size_t s = shard_hasher_.Hash(keys[i], 0) & shard_mask_;
      shard_keys[s].push_back(keys[i]);
      shard_pos[s].push_back(i);
    }
    std::unique_ptr<bool[]> shard_out;
    size_t cap = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      size_t n = shard_keys[s].size();
      if (n == 0) continue;
      if (n > cap) {
        shard_out.reset(new bool[n]);
        cap = n;
      }
      shards_[s]->ContainsBatch(shard_keys[s],
                                std::span<bool>(shard_out.get(), n));
      for (size_t j = 0; j < n; ++j) out[shard_pos[s][j]] = shard_out[j];
    }
  }

  uint64_t SizeInBits() const override {
    uint64_t bits = 0;
    for (const auto& s : shards_) bits += s->SizeInBits();
    return bits;
  }

 private:
  std::vector<std::unique_ptr<KeyFilter>> shards_;
  Hasher shard_hasher_;
  uint64_t shard_mask_;
};

// Shared two-pass skeleton over a pinned snapshot of the shard set,
// instantiating the library-wide batch pipeline: pass 1 computes each key's
// shard and (bucket, fp). All shards share one salt, so the raw key hash is
// computed once and re-masked with the TARGET shard's bucket mask (shards
// may have different bucket counts after per-shard resizes); both buckets of
// each pair are prefetched in the target shard, and
// resolve(index, shard, bucket, fp) runs with the lines (likely) cached.
template <typename Resolver>
void ShardedTwoPass(const ShardedCcf& self,
                    std::span<const CcfBase* const> bases,
                    std::span<const uint64_t> keys, Resolver&& resolve) {
  const Hasher& hasher = bases[0]->hasher();
  const int fp_bits = bases[0]->config().key_fp_bits;
  struct Addr {
    uint64_t bucket;
    uint64_t alt;
    uint32_t shard;
    uint32_t fp;
  };
  RunBatchPipeline<Addr>(
      keys.size(), kBatchPipelineBlock,
      [&](size_t i) {
        Addr a;
        uint64_t key = keys[i];
        a.shard = static_cast<uint32_t>(self.ShardOf(key));
        uint64_t mask = bases[a.shard]->table().bucket_mask();
        cuckoo_addressing::IndexAndFingerprintFromHash(
            hasher.Hash(key, 0), mask, fp_bits, &a.bucket, &a.fp);
        a.alt = cuckoo_addressing::AltBucket(hasher, a.bucket, a.fp, mask);
        return a;
      },
      [&](const Addr& a) {
        const BucketTable& table = bases[a.shard]->table();
        table.PrefetchBucket(a.bucket);
        if (a.alt != a.bucket) table.PrefetchBucket(a.alt);
      },
      [&](size_t i, const Addr& a) { resolve(i, a.shard, a.bucket, a.fp); });
}

// Deterministic per-shard error aggregation shared by InsertParallel and
// CommitWrites: the LOWEST failing shard's status wins, independent of
// thread scheduling.
Status AggregateShardStatus(std::span<const Status> shard_status) {
  for (size_t s = 0; s < shard_status.size(); ++s) {
    if (!shard_status[s].ok()) {
      return Status(shard_status[s].code(),
                    "shard " + std::to_string(s) + ": " +
                        shard_status[s].message());
    }
  }
  return Status::OK();
}

}  // namespace

ShardedCcf::ShardedCcf(
    std::vector<std::unique_ptr<ConditionalCuckooFilter>> shards,
    ShardedCcfOptions options)
    : options_(options),
      shard_config_(shards[0]->config()),
      variant_(shards[0]->variant()),
      shard_mask_(shards.size() - 1),
      shard_hasher_(shards[0]->config().salt ^ kShardSaltMix) {
  shards_.reserve(shards.size());
  for (auto& shard : shards) {
    shards_.push_back(std::make_unique<Shard>(&domain_, std::move(shard)));
  }
}

ShardedCcf::~ShardedCcf() {
  // Teardown order (see the header): every in-flight watermark resize and
  // autocommit first — those futures capture `this` and take shard locks,
  // so they must be reaped BEFORE the domain (or a shard) dies — and only
  // then the domain's deferred hooks, while the shards (whose spare slots
  // the write-buffer recycle hooks touch) are still alive. domain_ itself
  // is declared first, so destroyed last.
  DrainMaintenance();
  domain_.Synchronize();
}

int ShardedCcf::WorkerThreads(int requested, int build_threads,
                              size_t num_shards, unsigned hardware_threads) {
  int threads = requested > 0 ? requested : build_threads;
  if (threads <= 0) threads = static_cast<int>(num_shards);
  const int hardware = static_cast<int>(std::max(1u, hardware_threads));
  return std::min({threads, static_cast<int>(num_shards), hardware});
}

Result<std::unique_ptr<ShardedCcf>> ShardedCcf::Make(
    CcfVariant variant, const CcfConfig& config,
    const ShardedCcfOptions& options) {
  if (options.num_shards < 1 || options.num_shards > 4096) {
    return Status::Invalid("num_shards must be in [1, 4096]");
  }
  if (options.max_auto_resizes < 0) {
    return Status::Invalid("max_auto_resizes must be >= 0");
  }
  if (options.resize_watermark < 0.0 || options.resize_watermark >= 1.0) {
    return Status::Invalid("resize_watermark must be in [0, 1)");
  }
  if (options.compact_watermark >= 1.0) {
    return Status::Invalid("compact_watermark must be < 1 (<= 0 disables)");
  }
  ShardedCcfOptions opts = options;
  opts.num_shards = static_cast<int>(
      NextPowerOfTwo(static_cast<uint64_t>(options.num_shards)));

  CcfConfig shard_config = config;
  shard_config.num_buckets =
      std::max<uint64_t>(1, config.num_buckets /
                                static_cast<uint64_t>(opts.num_shards));
  std::vector<std::unique_ptr<ConditionalCuckooFilter>> shards;
  shards.reserve(static_cast<size_t>(opts.num_shards));
  for (int i = 0; i < opts.num_shards; ++i) {
    CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> shard,
                         ConditionalCuckooFilter::Make(variant, shard_config));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedCcf>(new ShardedCcf(std::move(shards), opts));
}

Status ShardedCcf::Insert(uint64_t key, std::span<const uint64_t> attrs) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.writer_mu);
  ConditionalCuckooFilter* filter = shard.handle.writable();
  size_t old_rows = shard.keys.size();
  if (resizable_) {
    // Mirror the row into the shard's log BEFORE attempting placement, so a
    // capacity-triggered rebuild re-places it too. The memo words are
    // geometry-independent (salt-keyed hash + packed payload) and stay
    // valid across any number of doublings.
    if (static_cast<int>(attrs.size()) != config().num_attrs) {
      return Status::Invalid("attribute count does not match schema");
    }
    uint64_t row_memo[2];
    static_cast<CcfBase*>(filter)->MemoizeRow(key, attrs, &row_memo[0],
                                              &row_memo[1]);
    LogAppendRows(shard, std::span<const uint64_t>(&key, 1), attrs,
                  std::span<const uint64_t>(row_memo, 2));
  }
  Status st = filter->Insert(key, attrs);
  if (st.code() == StatusCode::kCapacityError) {
    st = GrowShardLocked(shard, std::move(st));
  }
  if (!st.ok() && resizable_) {
    // The row was ultimately rejected and (scalar Insert rolls back on
    // failure) is not in the table: drop it from the log too, or a later
    // resize would silently resurrect a row the caller was told failed.
    LogTruncate(shard, old_rows);
  }
  if (st.ok()) MaybeScheduleWatermarkResize(ShardOf(key), shard);
  return st;
}

// --- Write batching (the wait-free live-write path) --------------------------

ShardedCcf::WriteBuffer* ShardedCcf::PendingWithRoom(Shard& shard,
                                                     size_t rows_needed) {
  WriteBuffer* cur = shard.pending.load(std::memory_order_relaxed);
  size_t n = cur ? cur->size_unsync() : 0;
  // Stamp the overlay's birth for the autocommit age trigger: this runs
  // under writer_mu on every buffered write, so an empty→non-empty
  // transition is exactly "no staged rows here, rows about to land".
  if (n == 0 && options_.autocommit_interval.count() > 0) {
    shard.first_staged = std::chrono::steady_clock::now();
  }
  if (cur != nullptr && n + rows_needed <= cur->capacity()) return cur;

  // Grow (or bootstrap) by replacement: build the bigger block privately,
  // then swap it in with one seq_cst exchange. A reader pinned on the old
  // block keeps scanning it safely until reclamation; a reader that loads
  // the new pointer sees every copied row (the exchange release-publishes
  // them).
  size_t want = NextPowerOfTwo(std::max<uint64_t>(
      64, std::max<uint64_t>(n + rows_needed,
                             cur ? 2 * cur->capacity() : 0)));
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  WriteBuffer* fresh = shard.spare.exchange(nullptr, std::memory_order_acq_rel);
  if (fresh != nullptr && fresh->capacity() >= want) {
    fresh->Reset();
  } else {
    delete fresh;
    fresh = new WriteBuffer(want, num_attrs);
  }
  if (cur != nullptr) fresh->Adopt(*cur, n);
  shard.pending.store(fresh, std::memory_order_seq_cst);
  RetireBuffer(shard, cur);
  return fresh;
}

void ShardedCcf::RetireBuffer(Shard& shard, WriteBuffer* old) {
  if (old == nullptr) return;
  // Not a plain delete: once no reader can hold the block, stash it in the
  // shard's single recycle slot so steady-state staging reuses the
  // allocation (util/epoch.h's generalized retire hook).
  domain_.RetireHook([&shard, old] {
    WriteBuffer* prev = shard.spare.exchange(old, std::memory_order_acq_rel);
    delete prev;
  });
}

// --- Retained-log maintenance (all callers hold the shard's writer_mu) ------

void ShardedCcf::LogAppendRows(Shard& shard, std::span<const uint64_t> keys,
                               std::span<const uint64_t> attrs,
                               std::span<const uint64_t> memo) {
  size_t first = shard.keys.size();
  shard.keys.insert(shard.keys.end(), keys.begin(), keys.end());
  shard.attrs.insert(shard.attrs.end(), attrs.begin(), attrs.end());
  shard.memo.insert(shard.memo.end(), memo.begin(), memo.end());
  shard.dead.resize(shard.keys.size(), 0);
  if (shard.index_built) {
    for (size_t r = 0; r < keys.size(); ++r) {
      shard.row_index[keys[r]].push_back(static_cast<uint32_t>(first + r));
    }
  }
}

void ShardedCcf::LogTruncate(Shard& shard, size_t old_rows) {
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  for (size_t r = shard.keys.size(); r-- > old_rows;) {
    if (shard.dead[r]) --shard.dead_count;
    if (shard.index_built) {
      // Truncated rows are the newest entries of their key's list.
      auto it = shard.row_index.find(shard.keys[r]);
      it->second.pop_back();
      if (it->second.empty()) shard.row_index.erase(it);
    }
  }
  shard.keys.resize(old_rows);
  shard.attrs.resize(old_rows * num_attrs);
  shard.memo.resize(old_rows * 2);
  shard.dead.resize(old_rows);
}

void ShardedCcf::EnsureLogIndex(Shard& shard) {
  if (shard.index_built) return;
  shard.dead.resize(shard.keys.size(), 0);
  shard.row_index.clear();
  for (size_t r = 0; r < shard.keys.size(); ++r) {
    shard.row_index[shard.keys[r]].push_back(static_cast<uint32_t>(r));
  }
  shard.index_built = true;
}

Status ShardedCcf::BufferWrite(uint64_t key, std::span<const uint64_t> attrs) {
  if (static_cast<int>(attrs.size()) != config().num_attrs) {
    return Status::Invalid("attribute count does not match schema");
  }
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.writer_mu);
  WriteBuffer* buffer = PendingWithRoom(shard, 1);
  uint64_t key_hash, payload;
  static_cast<CcfBase*>(shard.handle.writable())
      ->MemoizeRow(key, attrs, &key_hash, &payload);
  buffer->Append(key, attrs, key_hash, payload);
  MaybeScheduleAutoCommit(ShardOf(key), shard);
  return Status::OK();
}

Status ShardedCcf::BufferWriteBatch(std::span<const uint64_t> keys,
                                    std::span<const uint64_t> attrs) {
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  if (attrs.size() != keys.size() * num_attrs) {
    return Status::Invalid(
        "BufferWriteBatch: attrs must hold keys.size() * num_attrs values");
  }
  // Gather per shard first so each shard's writer mutex is taken once and
  // its buffer grown at most once.
  std::vector<std::vector<size_t>> shard_rows(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    shard_rows[ShardOf(keys[i])].push_back(i);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_rows[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.writer_mu);
    WriteBuffer* buffer = PendingWithRoom(shard, shard_rows[s].size());
    auto* base = static_cast<CcfBase*>(shard.handle.writable());
    // Stage the whole shard group, then publish it with ONE release
    // store: a concurrent reader sees all of the group's records or none.
    // All records of one key land in one shard (routing hashes the key),
    // so any per-key record group — e.g. the η dyadic labels of a
    // RangeCcf row — becomes visible atomically.
    size_t staged = 0;
    for (size_t i : shard_rows[s]) {
      std::span<const uint64_t> row_attrs =
          attrs.subspan(i * num_attrs, num_attrs);
      uint64_t key_hash, payload;
      base->MemoizeRow(keys[i], row_attrs, &key_hash, &payload);
      buffer->Stage(staged++, keys[i], row_attrs, key_hash, payload);
    }
    buffer->PublishStaged(staged);
    MaybeScheduleAutoCommit(s, shard);
  }
  return Status::OK();
}

namespace {

// Shared precondition of the tombstone stagers: the log must exist (erases
// are marked dead there exactly) and the geometry must pack payloads into
// one word (the erase class is (key, packed payload word)).
Status ValidateCrudShard(bool resizable, const CcfBase& base) {
  if (!resizable) {
    return Status::Invalid(
        "ShardedCcf: deserialized filters retain no row log; erase/update "
        "is unavailable");
  }
  if (base.table().slot_bits() > 64) {
    return Status::Invalid(
        "ShardedCcf: erase/update requires packed payload words "
        "(slot_bits <= 64)");
  }
  return Status::OK();
}

}  // namespace

Status ShardedCcf::BufferErase(uint64_t key, std::span<const uint64_t> attrs) {
  if (static_cast<int>(attrs.size()) != config().num_attrs) {
    return Status::Invalid("attribute count does not match schema");
  }
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.writer_mu);
  auto* base = static_cast<CcfBase*>(shard.handle.writable());
  CCF_RETURN_NOT_OK(ValidateCrudShard(resizable_, *base));
  WriteBuffer* buffer = PendingWithRoom(shard, 1);
  uint64_t key_hash, payload;
  base->MemoizeRow(key, attrs, &key_hash, &payload);
  buffer->Append(key, attrs, key_hash, payload, WriteBuffer::kOpErase);
  MaybeScheduleAutoCommit(ShardOf(key), shard);
  return Status::OK();
}

Status ShardedCcf::BufferUpdate(uint64_t key,
                                std::span<const uint64_t> old_attrs,
                                std::span<const uint64_t> new_attrs) {
  if (static_cast<int>(old_attrs.size()) != config().num_attrs ||
      static_cast<int>(new_attrs.size()) != config().num_attrs) {
    return Status::Invalid("attribute count does not match schema");
  }
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.writer_mu);
  auto* base = static_cast<CcfBase*>(shard.handle.writable());
  CCF_RETURN_NOT_OK(ValidateCrudShard(resizable_, *base));
  WriteBuffer* buffer = PendingWithRoom(shard, 2);
  uint64_t old_hash, old_payload, new_hash, new_payload;
  base->MemoizeRow(key, old_attrs, &old_hash, &old_payload);
  base->MemoizeRow(key, new_attrs, &new_hash, &new_payload);
  buffer->AppendUpdate(key, old_attrs, old_hash, old_payload, new_attrs,
                       new_hash, new_payload);
  MaybeScheduleAutoCommit(ShardOf(key), shard);
  return Status::OK();
}

Status ShardedCcf::CommitShardLocked(size_t s, Shard& shard) {
  WriteBuffer* pending = shard.pending.load(std::memory_order_relaxed);
  size_t n = pending ? pending->size_unsync() : 0;
  if (n == 0) return Status::OK();
  if (pending->num_erases_unsync() > 0) return CommitShardCrudLocked(s, shard);

  std::span<const uint64_t> keys = pending->keys(n);
  std::span<const uint64_t> attrs = pending->attrs(n);
  std::span<const uint64_t> memo = pending->memo(n);

  // Build the staged rows into a copy-on-write clone OFF the serving path:
  // Clone shares the published table, and the clone's InsertBatch unshares
  // it before the first write, so readers of the published snapshot never
  // observe intermediate placement. The staged memo words feed InsertBatch's
  // reuse path — commit re-masks, it never re-hashes.
  CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> clone,
                       shard.handle.writable()->Clone());
  std::vector<uint64_t> memo_words(memo.begin(), memo.end());
  Status st = clone->InsertBatch(keys, attrs, &memo_words);

  bool committed = false;
  if (st.ok()) {
    shard.handle.Publish(std::move(clone));
    committed = true;
  } else if (st.code() == StatusCode::kCapacityError && resizable_ &&
             options_.max_auto_resizes > 0) {
    // The clone could not absorb the batch: fall back to the auto-resize
    // doubling rebuild from the retained log WITH the pending rows appended
    // (a successful rebuild publishes a table containing them).
    size_t logged_rows = shard.keys.size();
    LogAppendRows(shard, keys, attrs, memo);
    Status grown = GrowShardLocked(shard, std::move(st));
    if (!grown.ok()) {
      // No attempt published: un-append so the log mirrors exactly the
      // committed row set, and keep the rows staged for a retry.
      LogTruncate(shard, logged_rows);
      return grown;
    }
    // The rebuild placed the batch (the log already carries it): drop the
    // overlay (ordering note below) and check the watermark.
    RetireBuffer(shard,
                 shard.pending.exchange(nullptr, std::memory_order_seq_cst));
    MaybeScheduleWatermarkResize(s, shard);
    return Status::OK();
  }

  if (!committed) {
    // Commit failed (capacity with auto-resize unavailable, or a non-
    // capacity error): the rows stay staged and overlay-visible so the
    // caller can ResizeShard and retry without losing writes.
    return st;
  }

  if (resizable_) {
    // Mirror the batch into the retained row log in staging order — the
    // same arrival-order contract the in-place paths keep, which is what
    // makes a later log rebuild bit-identical to a from-scratch batched
    // build of the full row set.
    LogAppendRows(shard, keys, attrs, memo);
  }

  // Drop the overlay only AFTER the new table is published: between the two
  // swaps a reader may see the rows in both places (harmless — answers are
  // a union); the reverse order would open a false-negative window.
  RetireBuffer(shard,
               shard.pending.exchange(nullptr, std::memory_order_seq_cst));
  MaybeScheduleWatermarkResize(s, shard);
  return Status::OK();
}

Status ShardedCcf::CommitShardCrudLocked(size_t s, Shard& shard) {
  WriteBuffer* pending = shard.pending.load(std::memory_order_relaxed);
  const size_t n = pending->size_unsync();
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  EnsureLogIndex(shard);

  std::span<const uint64_t> keys = pending->keys(n);
  std::span<const uint64_t> attrs = pending->attrs(n);
  std::span<const uint64_t> memo = pending->memo(n);

  // Apply the staged records IN ORDER against a copy-on-write clone: runs
  // of consecutive inserts go through the batched memo path exactly like
  // the erase-free commit, and each tombstone (a) plans its log dead-marks
  // from the key index — the EXACT bookkeeping — and (b) best-effort
  // reclaims the clone's table entry. In-order application keeps
  // erase-then-reinsert sequences correct.
  CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> clone,
                       shard.handle.writable()->Clone());
  auto* base = static_cast<CcfBase*>(clone.get());

  // Insert records by key, for in-batch kills (an erase record also kills
  // matching inserts staged BEFORE it in this very batch) and for the Bloom
  // key-liveness gate.
  std::unordered_map<uint64_t, std::vector<uint32_t>> batch_inserts;
  size_t staged_inserts = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pending->op(i) == WriteBuffer::kOpInsert) {
      batch_inserts[pending->key(i)].push_back(static_cast<uint32_t>(i));
      ++staged_inserts;
    }
  }

  std::vector<uint32_t> plan_dead;        // log rows to mark dead on success
  std::unordered_set<uint32_t> planned;   // dedupe across erase records
  std::vector<uint8_t> record_dead(n, 0); // staged inserts killed in-batch
  Status capacity_error = Status::OK();
  bool capacity_failed = false;

  size_t i = 0;
  while (i < n) {
    if (pending->op(i) == WriteBuffer::kOpInsert) {
      size_t j = i + 1;
      while (j < n && pending->op(j) == WriteBuffer::kOpInsert) ++j;
      if (!capacity_failed) {
        std::vector<uint64_t> memo_words(memo.begin() + 2 * i,
                                         memo.begin() + 2 * j);
        Status st = base->InsertBatch(
            keys.subspan(i, j - i),
            attrs.subspan(i * num_attrs, (j - i) * num_attrs), &memo_words);
        if (st.code() == StatusCode::kCapacityError) {
          // Keep PLANNING the remaining records (the doubled rebuild below
          // needs the batch's full net effect on the log); stop touching
          // the doomed clone.
          capacity_failed = true;
          capacity_error = std::move(st);
        } else if (!st.ok()) {
          // Non-capacity failure: nothing published, nothing logged, rows
          // stay staged and overlay-visible.
          return st;
        }
      }
      i = j;
      continue;
    }
    // Erase record: kill the (key, payload) class.
    const uint64_t key = pending->key(i);
    const uint64_t payload = pending->payload(i);
    bool any_dead = false;
    auto bit = batch_inserts.find(key);
    if (bit != batch_inserts.end()) {
      for (uint32_t r : bit->second) {
        if (r >= i) break;  // records staged after this erase are unaffected
        if (!record_dead[r] && pending->payload(r) == payload) {
          record_dead[r] = 1;
          any_dead = true;
        }
      }
    }
    auto lit = shard.row_index.find(key);
    if (lit != shard.row_index.end()) {
      for (uint32_t row : lit->second) {
        if (!shard.dead[row] && shard.memo[2 * row + 1] == payload &&
            planned.insert(row).second) {
          plan_dead.push_back(row);
          any_dead = true;
        }
      }
    }
    if (any_dead && !capacity_failed) {
      // Physical reclamation is gated on the tombstone actually killing a
      // row we know about — an erase of a never-inserted row must not
      // delete a fingerprint-colliding entry. For the Bloom variant the
      // entry is the OR-fold of EVERY row of the key, so it may only be
      // deleted once no live row of the key remains (subset folds make
      // word-equality alone unsound there).
      bool reclaim = true;
      if (variant_ == CcfVariant::kBloom) {
        if (lit != shard.row_index.end()) {
          for (uint32_t row : lit->second) {
            if (!shard.dead[row] && planned.count(row) == 0) {
              reclaim = false;
              break;
            }
          }
        }
        if (reclaim && bit != batch_inserts.end()) {
          for (uint32_t r : bit->second) {
            if (r >= i) break;
            if (!record_dead[r]) {
              reclaim = false;
              break;
            }
          }
        }
      }
      if (reclaim) base->EraseRowMemoized(pending->key_hash(i), payload);
    }
    ++i;
  }

  // The batch's net effect on the log: mark the planned tombstones dead and
  // append the surviving staged inserts.
  auto apply_log = [&]() -> size_t {
    size_t old_rows = shard.keys.size();
    for (uint32_t row : plan_dead) {
      shard.dead[row] = 1;
      ++shard.dead_count;
    }
    for (size_t r = 0; r < n; ++r) {
      if (pending->op(r) != WriteBuffer::kOpInsert || record_dead[r]) continue;
      uint64_t row_key = pending->key(r);
      uint64_t row_memo[2] = {pending->key_hash(r), pending->payload(r)};
      LogAppendRows(shard, std::span<const uint64_t>(&row_key, 1),
                    pending->attrs_row(r),
                    std::span<const uint64_t>(row_memo, 2));
    }
    return old_rows;
  };

  if (capacity_failed) {
    // The clone could not absorb the batch: discard it and fall back to the
    // doubled rebuild from the log carrying the batch's net effect — the
    // rebuilt table contains the survivors only, no residue.
    clone.reset();
    size_t old_rows = apply_log();
    Status grown = GrowShardLocked(shard, std::move(capacity_error));
    if (!grown.ok()) {
      // No attempt published: roll the log back exactly (un-append, un-mark)
      // and keep the records staged for a retry.
      LogTruncate(shard, old_rows);
      for (uint32_t row : plan_dead) {
        shard.dead[row] = 0;
        --shard.dead_count;
      }
      return grown;
    }
  } else {
    // Class erases kill rows the variant's erase hook cannot count (one
    // entry may stand for several collapsed duplicates, and unreclaimable
    // residue never reaches the hook): set the logical row count from the
    // log plan, which is exact — live log rows before the batch, minus the
    // planned tombstones, plus the staged inserts that survived in-batch
    // kills. Rebuild paths (resize, compaction) recount the same way.
    size_t killed_in_batch = 0;
    for (uint8_t d : record_dead) killed_in_batch += d;
    base->SetNumRows(shard.keys.size() - shard.dead_count -
                     plan_dead.size() + staged_inserts - killed_in_batch);
    shard.handle.Publish(std::move(clone));
    apply_log();
  }

  // Drop the overlay only AFTER the new table is published — same
  // straddling-reader argument as the erase-free commit (a reader holding
  // both sees the union, and exclusions re-applied against the new table
  // are no-ops on already-reclaimed entries).
  RetireBuffer(shard,
               shard.pending.exchange(nullptr, std::memory_order_seq_cst));
  MaybeCompactShard(shard);
  MaybeScheduleWatermarkResize(s, shard);
  return Status::OK();
}

void ShardedCcf::ForEachShardParallel(
    int threads, const std::function<void(size_t)>& work) {
  const size_t num_shards = shards_.size();
  if (threads <= 1) {
    for (size_t s = 0; s < num_shards; ++s) work(s);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t s = static_cast<size_t>(t); s < num_shards;
           s += static_cast<size_t>(threads)) {
        work(s);
      }
    });
  }
  for (auto& w : workers) w.join();
}

Status ShardedCcf::CommitWrites(int num_threads) {
  const size_t num_shards = shards_.size();
  std::vector<Status> shard_status(num_shards);
  // Pre-scan staged sizes under a pin (a racing committer may swap and
  // retire the block we peek at) to decide whether striping is worth it:
  // with at most one non-empty shard the commit runs inline on the calling
  // thread, exactly the historical behavior.
  size_t nonempty = 0;
  {
    EpochDomain::Guard guard = domain_.Pin();
    for (const auto& s : shards_) {
      const WriteBuffer* p = s->pending.load(std::memory_order_seq_cst);
      if (p != nullptr && p->size() > 0) ++nonempty;
    }
  }
  int threads = WorkerThreads(num_threads, options_.build_threads, num_shards,
                              std::thread::hardware_concurrency());
  if (nonempty <= 1) threads = 1;
  ForEachShardParallel(threads, [&](size_t s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.writer_mu);
    shard_status[s] = CommitShardLocked(s, shard);
  });
  return AggregateShardStatus(shard_status);
}

std::future<Status> ShardedCcf::CommitWritesAsync() {
  return std::async(std::launch::async, [this] { return CommitWrites(); });
}

uint64_t ShardedCcf::pending_writes() const {
  EpochDomain::Guard guard = domain_.Pin();
  uint64_t n = 0;
  for (const auto& s : shards_) {
    const WriteBuffer* p = s->pending.load(std::memory_order_seq_cst);
    if (p != nullptr) n += p->size();
  }
  return n;
}

void ShardedCcf::MaybeScheduleWatermarkResize(size_t s, Shard& shard) {
  if (!resizable_ || options_.resize_watermark <= 0.0) return;
  const auto* base = static_cast<const CcfBase*>(shard.handle.writable());
  uint64_t slots = base->table().num_slots();
  if (slots == 0 ||
      static_cast<double>(base->num_entries()) <
          options_.resize_watermark * static_cast<double>(slots)) {
    return;
  }
  bool expected = false;
  if (!shard.resize_scheduled.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;  // a resize for this shard is already in flight
  }
  LaunchMaintenance([this, s] {
    // The doubling rebuild itself: runs on this background thread, takes
    // the shard's writer mutex (so it serializes AFTER the commit that
    // scheduled it releases the lock), publishes via epoch swap.
    Status st = ResizeShard(static_cast<int>(s));
    if (st.ok()) {
      num_watermark_resizes_.fetch_add(1, std::memory_order_relaxed);
    }
    shards_[s]->resize_scheduled.store(false, std::memory_order_release);
    return st;
  });
}

void ShardedCcf::MaybeScheduleAutoCommit(size_t s, Shard& shard) {
  const bool size_enabled = options_.autocommit_pending_rows > 0;
  const bool age_enabled = options_.autocommit_interval.count() > 0;
  if (!size_enabled && !age_enabled) return;
  WriteBuffer* pending = shard.pending.load(std::memory_order_relaxed);
  size_t n = pending ? pending->size_unsync() : 0;
  if (n == 0) return;
  bool trigger = size_enabled && n >= options_.autocommit_pending_rows;
  if (!trigger && age_enabled) {
    trigger = std::chrono::steady_clock::now() - shard.first_staged >=
              options_.autocommit_interval;
  }
  if (!trigger) return;
  bool expected = false;
  if (!shard.commit_scheduled.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;  // an auto-commit for this shard is already in flight
  }
  LaunchMaintenance([this, s] {
    // Same shape as the watermark-resize task: serialize after the write
    // that scheduled us by taking the shard's writer mutex, commit the
    // overlay into a copy-on-write clone, publish via epoch swap. Staged
    // rows stay query-visible the whole time, so a failed background
    // commit only means the overlay stays long until the next trigger or
    // an explicit CommitWrites.
    Shard& shard = *shards_[s];
    Status st;
    {
      std::lock_guard<std::mutex> lock(shard.writer_mu);
      st = CommitShardLocked(s, shard);
      if (st.ok()) MaybeScheduleWatermarkResize(s, shard);
    }
    if (st.ok()) num_autocommits_.fetch_add(1, std::memory_order_relaxed);
    shard.commit_scheduled.store(false, std::memory_order_release);
    return st;
  });
}

void ShardedCcf::LaunchMaintenance(std::function<Status()> task) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  maintenance_.erase(
      std::remove_if(maintenance_.begin(), maintenance_.end(),
                     [](std::future<Status>& f) {
                       if (f.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready) {
                         f.get();
                         return true;
                       }
                       return false;
                     }),
      maintenance_.end());
  maintenance_.push_back(std::async(std::launch::async, std::move(task)));
}

void ShardedCcf::DrainMaintenance() {
  std::vector<std::future<Status>> pending;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(maintenance_mu_);
      pending.swap(maintenance_);
    }
    if (pending.empty()) return;
    // Background statuses are advisory (the policy re-fires at the next
    // commit); joining is what matters here.
    for (auto& f : pending) f.get();
    pending.clear();
    // A drained resize may have scheduled nothing more, but a commit racing
    // with the drain could have; loop until the list stays empty.
  }
}

Status ShardedCcf::InsertParallel(std::span<const uint64_t> keys,
                                  std::span<const uint64_t> attrs,
                                  int num_threads,
                                  std::vector<uint64_t>* hash_memo) {
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  if (attrs.size() != keys.size() * num_attrs) {
    return Status::Invalid(
        "InsertParallel: attrs must hold keys.size() * num_attrs values");
  }
  if (hash_memo != nullptr && !hash_memo->empty() &&
      hash_memo->size() != 2 * keys.size()) {
    return Status::Invalid(
        "InsertParallel: hash_memo must be empty or hold two words per key");
  }
  const bool reuse_memo = hash_memo != nullptr && !hash_memo->empty();
  const bool fill_memo = hash_memo != nullptr && !reuse_memo;

  // Gather contiguous per-shard rows (insertion order preserved per shard)
  // so each shard's whole build is one batched InsertBatch over its slice —
  // the write-side analogue of the batched lookup's gather/delegate path.
  const size_t num_shards = shards_.size();
  std::vector<std::vector<uint64_t>> shard_keys(num_shards);
  std::vector<std::vector<uint64_t>> shard_attrs(num_shards);
  std::vector<std::vector<uint64_t>> shard_memo(num_shards);
  std::vector<std::vector<size_t>> shard_pos(fill_memo ? num_shards : 0);
  size_t expect = keys.size() / num_shards + 16;
  for (auto& v : shard_keys) v.reserve(expect);
  for (auto& v : shard_attrs) v.reserve(expect * num_attrs);
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t s = ShardOf(keys[i]);
    shard_keys[s].push_back(keys[i]);
    shard_attrs[s].insert(shard_attrs[s].end(),
                          attrs.begin() + static_cast<ptrdiff_t>(i * num_attrs),
                          attrs.begin() +
                              static_cast<ptrdiff_t>((i + 1) * num_attrs));
    if (reuse_memo) {
      shard_memo[s].push_back((*hash_memo)[2 * i]);
      shard_memo[s].push_back((*hash_memo)[2 * i + 1]);
    }
    if (fill_memo) shard_pos[s].push_back(i);
  }

  int threads = WorkerThreads(num_threads, options_.build_threads, num_shards,
                              std::thread::hardware_concurrency());
  std::vector<Status> shard_status(num_shards);
  ForEachShardParallel(threads, [&](size_t s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.writer_mu);
    // shard_memo[s] is empty on un-memoized builds; InsertBatch fills it
    // during its address pass (which runs for every row even when
    // placement later fails), so the row log below always carries
    // complete memo words.
    Status st = shard.handle.writable()->InsertBatch(
        shard_keys[s], shard_attrs[s], &shard_memo[s]);
    if (resizable_) {
      // The WHOLE batch joins the log even if placement fails below: a
      // failed InsertBatch leaves an unspecified subset of the batch in
      // the table, so a later rebuild must re-place all of it — dropping
      // the batch could lose rows that DID land (false negatives),
      // whereas keeping it only errs toward extra rows, the filter's
      // one-sided error direction. (Scalar Insert, whose failure rolls
      // the table back, does unlog its row — see Insert.)
      LogAppendRows(shard, shard_keys[s], shard_attrs[s], shard_memo[s]);
    }
    if (st.code() == StatusCode::kCapacityError) {
      // Online resize instead of failing the build: rebuild this shard
      // (doubling) from its retained log while other shards proceed —
      // readers of the shard keep probing the published snapshot.
      st = GrowShardLocked(shard, std::move(st));
    }
    if (st.ok()) MaybeScheduleWatermarkResize(s, shard);
    shard_status[s] = std::move(st);
  });

  if (fill_memo) {
    // Scatter the per-shard memo words back to input order so the caller's
    // memo is shard-layout-agnostic (and reusable by an unsharded rebuild
    // too).
    hash_memo->resize(2 * keys.size());
    for (size_t s = 0; s < num_shards; ++s) {
      for (size_t j = 0; j < shard_pos[s].size(); ++j) {
        (*hash_memo)[2 * shard_pos[s][j]] = shard_memo[s][2 * j];
        (*hash_memo)[2 * shard_pos[s][j] + 1] = shard_memo[s][2 * j + 1];
      }
    }
  }

  return AggregateShardStatus(shard_status);
}

Status ShardedCcf::InsertBatch(std::span<const uint64_t> keys,
                               std::span<const uint64_t> attrs,
                               std::vector<uint64_t>* hash_memo) {
  return InsertParallel(keys, attrs, /*num_threads=*/0, hash_memo);
}

Status ShardedCcf::ResizeShardLocked(Shard& shard, uint64_t new_num_buckets) {
  if (!resizable_) {
    return Status::Invalid(
        "ShardedCcf: deserialized filters retain no row log; online resize "
        "is unavailable");
  }
  ConditionalCuckooFilter* cur = shard.handle.writable();
  CcfConfig cfg = cur->config();
  cfg.num_buckets =
      new_num_buckets != 0 ? new_num_buckets : cfg.num_buckets * 2;
  CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> fresh,
                       ConditionalCuckooFilter::Make(cur->variant(), cfg));
  // Re-place every LIVE logged row from the memo (cached hashes are
  // re-masked at the new geometry, not re-hashed — PR 3's memoized-rebuild
  // machinery). InsertBatch is deterministic, so the rebuilt shard is
  // bit-identical to a from-scratch batched build of the surviving rows at
  // the new geometry — erase residue does not survive a resize. The log
  // itself is NOT rewritten here (row indices stay stable for the commit
  // rollback paths); compaction owns log rewriting.
  if (shard.dead_count == 0) {
    CCF_RETURN_NOT_OK(
        fresh->InsertBatch(shard.keys, shard.attrs, &shard.memo));
  } else {
    const size_t num_attrs = static_cast<size_t>(config().num_attrs);
    std::vector<uint64_t> live_keys, live_attrs, live_memo;
    size_t live = shard.keys.size() - shard.dead_count;
    live_keys.reserve(live);
    live_attrs.reserve(live * num_attrs);
    live_memo.reserve(live * 2);
    for (size_t r = 0; r < shard.keys.size(); ++r) {
      if (shard.dead[r]) continue;
      live_keys.push_back(shard.keys[r]);
      live_attrs.insert(
          live_attrs.end(),
          shard.attrs.begin() + static_cast<ptrdiff_t>(r * num_attrs),
          shard.attrs.begin() + static_cast<ptrdiff_t>((r + 1) * num_attrs));
      live_memo.push_back(shard.memo[2 * r]);
      live_memo.push_back(shard.memo[2 * r + 1]);
    }
    CCF_RETURN_NOT_OK(fresh->InsertBatch(live_keys, live_attrs, &live_memo));
  }
  // Swap the snapshot in one atomic publish; concurrent readers finish
  // their probes against the old table, which the epoch domain frees once
  // the last of them unpins.
  shard.handle.Publish(std::move(fresh));
  num_resizes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedCcf::GrowShardLocked(Shard& shard, Status capacity_error) {
  if (!resizable_ || options_.max_auto_resizes <= 0) return capacity_error;
  uint64_t buckets = shard.handle.writable()->config().num_buckets;
  Status st = std::move(capacity_error);
  for (int attempt = 0; attempt < options_.max_auto_resizes; ++attempt) {
    buckets *= 2;  // §4.1's resize rule, applied to one shard
    st = ResizeShardLocked(shard, buckets);
    if (st.code() != StatusCode::kCapacityError) return st;
  }
  return st;
}

Status ShardedCcf::CompactShardLocked(Shard& shard) {
  if (!resizable_) {
    return Status::Invalid(
        "ShardedCcf: deserialized filters retain no row log; compaction is "
        "unavailable");
  }
  ConditionalCuckooFilter* cur = shard.handle.writable();
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  std::vector<uint64_t> live_keys, live_attrs, live_memo;
  size_t live = shard.keys.size() - shard.dead_count;
  live_keys.reserve(live);
  live_attrs.reserve(live * num_attrs);
  live_memo.reserve(live * 2);
  for (size_t r = 0; r < shard.keys.size(); ++r) {
    if (r < shard.dead.size() && shard.dead[r]) continue;
    live_keys.push_back(shard.keys[r]);
    live_attrs.insert(
        live_attrs.end(),
        shard.attrs.begin() + static_cast<ptrdiff_t>(r * num_attrs),
        shard.attrs.begin() + static_cast<ptrdiff_t>((r + 1) * num_attrs));
    live_memo.push_back(shard.memo[2 * r]);
    live_memo.push_back(shard.memo[2 * r + 1]);
  }
  // A fresh build at the CURRENT geometry from the survivors, in log order:
  // deterministic InsertBatch makes the result byte-identical to a
  // from-scratch batched build of the surviving row set, so compaction
  // clears every flavour of erase residue (saturated chain copies, shared
  // Bloom folds, converted fragments of dead rows).
  CcfConfig cfg = cur->config();
  CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> fresh,
                       ConditionalCuckooFilter::Make(cur->variant(), cfg));
  Status st = fresh->InsertBatch(live_keys, live_attrs, &live_memo);
  if (!st.ok()) return st;  // table and log untouched; next trigger retries
  shard.handle.Publish(std::move(fresh));
  // The table now reflects exactly the survivors: rewrite the log to match.
  shard.keys.swap(live_keys);
  shard.attrs.swap(live_attrs);
  shard.memo.swap(live_memo);
  shard.dead.assign(shard.keys.size(), 0);
  shard.dead_count = 0;
  if (shard.index_built) {
    shard.row_index.clear();
    for (size_t r = 0; r < shard.keys.size(); ++r) {
      shard.row_index[shard.keys[r]].push_back(static_cast<uint32_t>(r));
    }
  }
  num_compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void ShardedCcf::MaybeCompactShard(Shard& shard) {
  const double wm = options_.compact_watermark;
  if (!resizable_ || wm <= 0.0 || shard.dead_count == 0) return;
  if (static_cast<double>(shard.dead_count) <
      wm * static_cast<double>(shard.keys.size())) {
    return;
  }
  // Advisory, like the watermark resize statuses: a failed attempt leaves
  // the shard fully consistent and the next commit re-fires the trigger.
  CompactShardLocked(shard).ok();
}

Status ShardedCcf::Compact() {
  if (!resizable_) {
    return Status::Invalid(
        "ShardedCcf: deserialized filters retain no row log; compaction is "
        "unavailable");
  }
  std::vector<Status> shard_status(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.writer_mu);
    shard_status[s] = CompactShardLocked(shard);
  }
  return AggregateShardStatus(shard_status);
}

uint64_t ShardedCcf::retained_log_rows() const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->writer_mu);
    n += s->keys.size();
  }
  return n;
}

uint64_t ShardedCcf::dead_log_rows() const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->writer_mu);
    n += s->dead_count;
  }
  return n;
}

Status ShardedCcf::ResizeShard(int shard, uint64_t new_num_buckets) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::OutOfRange("ResizeShard: shard index out of range");
  }
  Shard& sh = *shards_[static_cast<size_t>(shard)];
  std::lock_guard<std::mutex> lock(sh.writer_mu);
  return ResizeShardLocked(sh, new_num_buckets);
}

std::future<Status> ShardedCcf::ResizeShardAsync(int shard,
                                                 uint64_t new_num_buckets) {
  return std::async(std::launch::async, [this, shard, new_num_buckets] {
    return ResizeShard(shard, new_num_buckets);
  });
}

std::vector<const CcfBase*> ShardedCcf::LoadBases(
    const EpochDomain::Guard& guard) const {
  std::vector<const CcfBase*> bases(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    bases[s] = static_cast<const CcfBase*>(shards_[s]->handle.Load(guard));
  }
  return bases;
}

std::vector<const ShardedCcf::WriteBuffer*> ShardedCcf::LoadOverlays() const {
  // Caller holds an epoch pin (same contract as LoadBases): a loaded block
  // cannot be reclaimed until the pin dies, and rows published before the
  // load are visible via the block's release/acquire size protocol.
  std::vector<const WriteBuffer*> overlays(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const WriteBuffer* p =
        shards_[s]->pending.load(std::memory_order_seq_cst);
    overlays[s] = (p != nullptr && p->size() > 0) ? p : nullptr;
  }
  return overlays;
}

bool ShardedCcf::ResolveKeyWithOps(const CcfBase* base,
                                   const WriteBuffer* overlay, uint64_t key,
                                   const Predicate* pred) const {
  // ONE size snapshot bounds both overlay reads below. Re-reading it
  // between them could see an update group (erase + insert) published in
  // between as its erase alone: the committed row would be excluded while
  // the staged replacement went unchecked — a false negative.
  const size_t n = overlay->size();
  // Staged records first: the op-aware overlay probe answers true iff a
  // staged insert of the key survives every later-staged erase (and, with a
  // predicate, matches it).
  if (pred ? overlay->Contains(key, *pred, n) : overlay->ContainsKey(key, n)) {
    return true;
  }
  // Committed rows, with staged tombstones applied as exclusions. The
  // excluded set is computed from EXACT key matches over the published
  // records, so only classes the caller's key legitimately erased can be
  // hidden — a fingerprint-colliding key never inherits an exclusion.
  std::vector<uint64_t> excluded;
  for (size_t i = 0; i < n; ++i) {
    if (overlay->op(i) == WriteBuffer::kOpErase && overlay->key(i) == key) {
      excluded.push_back(overlay->payload(i));
    }
  }
  if (excluded.empty()) {
    return pred ? base->Contains(key, *pred) : base->ContainsKey(key);
  }
  uint64_t bucket;
  uint32_t fp;
  cuckoo_addressing::IndexAndFingerprintFromHash(
      base->hasher().Hash(key, 0), base->table().bucket_mask(),
      base->config().key_fp_bits, &bucket, &fp);
  return pred ? base->ContainsAddressedExcluding(bucket, fp, *pred, excluded)
              : base->ContainsKeyAddressedExcluding(bucket, fp, excluded);
}

Status ShardedCcf::ResolveShardBroadcast(const CcfBase* base,
                                         const WriteBuffer* overlay,
                                         std::span<const uint64_t> keys,
                                         std::span<const size_t> pos,
                                         const Predicate* pred,
                                         bool* out) const {
  const size_t n = keys.size();
  if (n == 0) return Status::OK();
  if (overlay != nullptr && overlay->num_erases() > 0) {
    // Staged tombstones may hide this shard's committed rows: resolve each
    // key exactly (the batch fast path cannot apply exclusions).
    for (size_t j = 0; j < n; ++j) {
      out[pos[j]] = ResolveKeyWithOps(base, overlay, keys[j], pred);
    }
    return Status::OK();
  }
  std::unique_ptr<bool[]> shard_out(new bool[n]);
  if (pred != nullptr) {
    CCF_RETURN_NOT_OK(base->LookupBatch(keys,
                                        std::span<const Predicate>(pred, 1),
                                        std::span<bool>(shard_out.get(), n)));
  } else {
    base->ContainsKeyBatch(keys, std::span<bool>(shard_out.get(), n));
  }
  for (size_t j = 0; j < n; ++j) {
    bool hit = shard_out[j];
    if (!hit && overlay != nullptr) {
      hit = pred != nullptr ? overlay->Contains(keys[j], *pred)
                            : overlay->ContainsKey(keys[j]);
    }
    out[pos[j]] = hit;
  }
  return Status::OK();
}

bool ShardedCcf::ContainsKey(uint64_t key) const {
  const Shard& shard = *shards_[ShardOf(key)];
  EpochDomain::Guard guard = domain_.Pin();
  // Staged-but-uncommitted rows answer through the exact overlay, so a
  // BufferWrite is visible the moment it returns (Insert→Contains holds
  // across the whole write cycle). Load order is the REVERSE of the
  // writer's commit order (publish table, THEN drop overlay; both
  // seq_cst): grab the overlay pointer BEFORE the table pointer, so an
  // overlay observed already-dropped implies the table load sees the
  // committed rows — a reader straddling a commit finds the row in one
  // place or the other, never neither. (Probe order is free; only the
  // pointer LOAD order matters, and a pinned overlay block keeps its rows
  // even after being swapped out.)
  const WriteBuffer* p = shard.pending.load(std::memory_order_seq_cst);
  const auto* base =
      static_cast<const CcfBase*>(shard.handle.Load(guard));
  if (p == nullptr) return base->ContainsKey(key);
  if (p->size() > 0 && p->num_erases() > 0) {
    // Staged tombstones may hide committed rows: take the exact slow path.
    return ResolveKeyWithOps(base, p, key, nullptr);
  }
  return base->ContainsKey(key) || p->ContainsKey(key);
}

bool ShardedCcf::Contains(uint64_t key, const Predicate& pred) const {
  const Shard& shard = *shards_[ShardOf(key)];
  EpochDomain::Guard guard = domain_.Pin();
  // Overlay pointer loaded before the table pointer — see ContainsKey.
  const WriteBuffer* p = shard.pending.load(std::memory_order_seq_cst);
  const auto* base =
      static_cast<const CcfBase*>(shard.handle.Load(guard));
  if (p == nullptr) return base->Contains(key, pred);
  if (p->size() > 0 && p->num_erases() > 0) {
    return ResolveKeyWithOps(base, p, key, &pred);
  }
  return base->Contains(key, pred) || p->Contains(key, pred);
}

Status ShardedCcf::LookupBatch(std::span<const uint64_t> keys,
                               std::span<const Predicate> preds,
                               std::span<bool> out) const {
  CCF_RETURN_NOT_OK(
      ValidateLookupBatchShape(keys.size(), preds.size(), out.size()));

  // One pin + one snapshot load per shard for the WHOLE batch: the loaded
  // pointers stay valid until the guard dies, however many resizes publish
  // in the meantime. The pending overlays are bound the same way (one load
  // per shard; rows staged after the load surface in the next batch) and
  // MUST be loaded before the table snapshots — the reverse of the writer's
  // publish-table-then-drop-overlay commit order — so a batch straddling a
  // commit finds each row in the overlay or the table, never neither (see
  // ContainsKey).
  EpochDomain::Guard guard = domain_.Pin();
  std::vector<const WriteBuffer*> overlays = LoadOverlays();
  std::vector<const CcfBase*> bases = LoadBases(guard);

  if (preds.size() == 1) {
    // Broadcast: gather keys per shard and delegate to each shard's own
    // batch hot path (which prefetches and compiles the predicate once),
    // then scatter the answers back.
    std::vector<std::vector<uint64_t>> shard_keys(shards_.size());
    std::vector<std::vector<size_t>> shard_pos(shards_.size());
    size_t expect = keys.size() / shards_.size() + 16;
    for (auto& v : shard_keys) v.reserve(expect);
    for (auto& v : shard_pos) v.reserve(expect);
    for (size_t i = 0; i < keys.size(); ++i) {
      size_t s = ShardOf(keys[i]);
      shard_keys[s].push_back(keys[i]);
      shard_pos[s].push_back(i);
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      CCF_RETURN_NOT_OK(ResolveShardBroadcast(bases[s], overlays[s],
                                              shard_keys[s], shard_pos[s],
                                              &preds[0], out.data()));
    }
    return Status::OK();
  }

  // Per-key predicates: resolve in place through the shared skeleton.
  ShardedTwoPass(*this, bases, keys,
                 [&](size_t i, size_t s, uint64_t bucket, uint32_t fp) {
                   const WriteBuffer* overlay = overlays[s];
                   if (overlay != nullptr && overlay->num_erases() > 0) {
                     out[i] = ResolveKeyWithOps(bases[s], overlay, keys[i],
                                                &preds[i]);
                     return;
                   }
                   out[i] = bases[s]->ContainsAddressed(bucket, fp,
                                                        preds[i]) ||
                            (overlay != nullptr &&
                             overlay->Contains(keys[i], preds[i]));
                 });
  return Status::OK();
}

void ShardedCcf::ContainsKeyBatch(std::span<const uint64_t> keys,
                                  std::span<bool> out) const {
  CCF_DCHECK(out.size() == keys.size());
  EpochDomain::Guard guard = domain_.Pin();
  // Overlays before tables — the commit-straddling order (see ContainsKey).
  std::vector<const WriteBuffer*> overlays = LoadOverlays();
  std::vector<const CcfBase*> bases = LoadBases(guard);
  ShardedTwoPass(*this, bases, keys,
                 [&](size_t i, size_t s, uint64_t bucket, uint32_t fp) {
                   const WriteBuffer* overlay = overlays[s];
                   if (overlay != nullptr && overlay->num_erases() > 0) {
                     out[i] = ResolveKeyWithOps(bases[s], overlay, keys[i],
                                                nullptr);
                     return;
                   }
                   out[i] = bases[s]->ContainsKeyAddressed(bucket, fp) ||
                            (overlay != nullptr &&
                             overlay->ContainsKey(keys[i]));
                 });
}

Result<std::unique_ptr<KeyFilter>> ShardedCcf::PredicateQuery(
    const Predicate& pred) const {
  EpochDomain::Guard guard = domain_.Pin();
  std::vector<std::unique_ptr<KeyFilter>> derived;
  derived.reserve(shards_.size());
  for (const auto& shard : shards_) {
    CCF_ASSIGN_OR_RETURN(std::unique_ptr<KeyFilter> kf,
                         shard->handle.Load(guard)->PredicateQuery(pred));
    derived.push_back(std::move(kf));
  }
  return std::unique_ptr<KeyFilter>(new ShardedKeyFilter(
      std::move(derived), shard_hasher_, shard_mask_));
}

uint64_t ShardedCcf::SizeInBits() const {
  EpochDomain::Guard guard = domain_.Pin();
  uint64_t bits = 0;
  for (const auto& s : shards_) {
    bits += s->handle.Load(guard)->SizeInBits();
  }
  return bits;
}

double ShardedCcf::LoadFactor() const {
  // Shards may diverge in geometry after per-shard resizes, so weight by
  // slot count (identical to the shard mean while geometry is uniform).
  EpochDomain::Guard guard = domain_.Pin();
  uint64_t occupied = 0, slots = 0;
  for (const auto& s : shards_) {
    const auto* base = static_cast<const CcfBase*>(s->handle.Load(guard));
    occupied += base->num_entries();
    slots += base->table().num_slots();
  }
  return slots == 0 ? 0.0
                    : static_cast<double>(occupied) /
                          static_cast<double>(slots);
}

uint64_t ShardedCcf::num_entries() const {
  EpochDomain::Guard guard = domain_.Pin();
  uint64_t n = 0;
  for (const auto& s : shards_) {
    n += s->handle.Load(guard)->num_entries();
  }
  return n;
}

uint64_t ShardedCcf::num_rows() const {
  EpochDomain::Guard guard = domain_.Pin();
  uint64_t n = 0;
  for (const auto& s : shards_) {
    n += s->handle.Load(guard)->num_rows();
  }
  return n;
}

std::string ShardedCcf::Serialize() const {
  EpochDomain::Guard guard = domain_.Pin();
  std::string out;
  ByteWriter writer(&out);
  writer.WriteU32(kShardedMagic);
  writer.WriteU32(static_cast<uint32_t>(shards_.size()));
  writer.WriteU32(static_cast<uint32_t>(options_.build_threads));
  for (const auto& s : shards_) {
    // Align so each shard blob starts 8-byte aligned after WriteBytes'
    // 8-byte length prefix — inner word arrays then stay aligned from the
    // CONTAINER start, which is what alias-mode loads check.
    writer.AlignTo(8);
    writer.WriteBytes(s->handle.Load(guard)->Serialize());
  }
  return out;
}

Result<std::unique_ptr<ConditionalCuckooFilter>> ShardedCcf::Deserialize(
    std::string_view data, const AliasMapping* alias) {
  ByteReader reader(data);
  CCF_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kShardedMagic) {
    if (magic == 0x53434631 /* "SCF1", the retired unaligned layout */) {
      return Status::Invalid(
          "blob uses the retired v1 (SCF1, unaligned) ShardedCcf format; "
          "re-serialize it with this version to load it");
    }
    return Status::Invalid("not a serialized ShardedCcf");
  }
  CCF_ASSIGN_OR_RETURN(uint32_t num_shards, reader.ReadU32());
  if (num_shards < 1 || num_shards > 4096 ||
      (num_shards & (num_shards - 1)) != 0) {
    return Status::Invalid("serialized ShardedCcf has invalid shard count");
  }
  CCF_ASSIGN_OR_RETURN(uint32_t build_threads, reader.ReadU32());
  std::vector<std::unique_ptr<ConditionalCuckooFilter>> shards;
  shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    CCF_RETURN_NOT_OK(reader.AlignTo(8));
    CCF_ASSIGN_OR_RETURN(std::string_view blob, reader.ReadBytes());
    // Shard blobs must be plain variants: a nested sharded blob would
    // recurse unboundedly on crafted input, and the hot path downcasts
    // shards to CcfBase.
    if (blob.size() >= 4) {
      uint32_t shard_magic;
      std::memcpy(&shard_magic, blob.data(), 4);
      if (shard_magic == kShardedMagic) {
        return Status::Invalid("nested sharded CCF blobs are not supported");
      }
    }
    CCF_ASSIGN_OR_RETURN(
        std::unique_ptr<ConditionalCuckooFilter> shard,
        alias == nullptr ? ConditionalCuckooFilter::Deserialize(blob)
                         : ConditionalCuckooFilter::Deserialize(blob, *alias));
    // The batched hot path computes one raw key hash with shard 0's hasher
    // and re-masks it per shard, so salts and slot/fingerprint shapes must
    // agree; bucket COUNTS may differ (per-shard resizes grow shards
    // independently).
    if (!shards.empty()) {
      const CcfConfig& a = shards.front()->config();
      const CcfConfig& b = shard->config();
      if (shard->variant() != shards.front()->variant() ||
          b.salt != a.salt ||
          b.slots_per_bucket != a.slots_per_bucket ||
          b.key_fp_bits != a.key_fp_bits) {
        return Status::Invalid(
            "sharded CCF blob has non-uniform shard variant/geometry");
      }
    }
    shards.push_back(std::move(shard));
  }
  ShardedCcfOptions opts;
  opts.num_shards = static_cast<int>(num_shards);
  opts.build_threads = static_cast<int>(build_threads);
  auto sharded =
      std::unique_ptr<ShardedCcf>(new ShardedCcf(std::move(shards), opts));
  // Serialized blobs carry tables, not rows: the restored filter serves and
  // accepts writes but cannot rebuild a shard from a log it never had.
  sharded->resizable_ = false;
  return std::unique_ptr<ConditionalCuckooFilter>(std::move(sharded));
}

}  // namespace ccf
