#include "serve/filter_catalog.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "ccf/compressed_ccf.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "util/serde.h"

namespace ccf {

namespace {

/// Structural predicate equality, used to group batched requests that can
/// share one broadcast LookupBatch call. Term order matters (a predicate
/// is a conjunction, so order is semantically irrelevant but callers that
/// built the predicate the same way produce the same order — good enough
/// for aggregation, never for correctness).
bool PredicatesEqual(const Predicate* a, const Predicate* b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  const auto& ta = a->terms();
  const auto& tb = b->terms();
  if (ta.size() != tb.size()) return false;
  for (size_t i = 0; i < ta.size(); ++i) {
    if (ta[i].attr_index != tb[i].attr_index) return false;
    if (ta[i].values != tb[i].values) return false;
  }
  return true;
}

/// True when the file at `path` is below the copy-load cut. A file that
/// cannot be stat'ed takes the mmap path, which reports the error.
bool CopyLoadable(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return !ec && size < FilterCatalog::kCopyLoadBytes;
}

}  // namespace

FilterCatalog::FilterCatalog(CatalogOptions options)
    : options_(options) {
  if (options_.enable_batcher) {
    ring_ = std::make_unique<SpscRing<BatchRequest*>>(
        std::max<size_t>(2, options_.batcher_ring_capacity));
    batcher_ = std::thread([this] { BatcherLoop(); });
  }
}

FilterCatalog::~FilterCatalog() {
  if (batcher_.joinable()) {
    stop_.store(true, std::memory_order_release);
    doorbell_.fetch_add(1, std::memory_order_release);
    doorbell_.notify_all();
    batcher_.join();
  }
  // ~EpochDomain frees every retired filter; live ones die with their
  // TableHandle members.
}

Result<FilterCatalog::Entry*> FilterCatalog::AddEntry(const std::string& id) {
  std::unique_lock lock(map_mu_);
  auto [it, inserted] =
      entries_.emplace(id, std::make_unique<Entry>(id, &domain_));
  if (!inserted) {
    return Status::Invalid("duplicate catalog id: " + id);
  }
  Entry* e = it->second.get();
  lock.unlock();
  {
    std::lock_guard clock_lock(evict_mu_);
    clock_.push_back(e);
  }
  return e;
}

FilterCatalog::Entry* FilterCatalog::FindEntry(const std::string& id) const {
  std::shared_lock lock(map_mu_);
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.get();
}

Status FilterCatalog::AddFile(const std::string& id, const std::string& path) {
  CCF_ASSIGN_OR_RETURN(Entry * e, AddEntry(id));
  std::lock_guard lock(e->mu);
  e->path = path;
  return Status::OK();
}

Status FilterCatalog::AddFilter(
    const std::string& id, std::unique_ptr<ConditionalCuckooFilter> filter) {
  if (filter == nullptr) {
    return Status::Invalid("AddFilter requires a non-null filter");
  }
  CCF_ASSIGN_OR_RETURN(Entry * e, AddEntry(id));
  {
    std::lock_guard lock(e->mu);
    e->hot_bytes = static_cast<size_t>(filter->SizeInBits() / 8);
    hot_bytes_.fetch_add(e->hot_bytes, std::memory_order_relaxed);
    e->referenced.store(1, std::memory_order_relaxed);
    e->live.Publish(std::move(filter));
  }
  EnforceBudget();
  return Status::OK();
}

Result<const ConditionalCuckooFilter*> FilterCatalog::PromoteLocked(
    Entry& e) {
  std::unique_ptr<ConditionalCuckooFilter> filter;
  if (e.path.empty()) {
    if (e.cold_blob.empty()) {
      return Status::Invalid("catalog entry has no cold form: " + e.id);
    }
    CCF_ASSIGN_OR_RETURN(filter, DecodeFilterBlob(e.cold_blob));
  } else if (CopyLoadable(e.path)) {
    // The hot filter owns heap memory: promotion maps nothing, and its
    // eviction frees memory instead of unmapping.
    CCF_ASSIGN_OR_RETURN(std::string blob, ReadFileBytes(e.path));
    CCF_ASSIGN_OR_RETURN(filter, ConditionalCuckooFilter::Deserialize(blob));
  } else {
    CCF_ASSIGN_OR_RETURN(MappedFile mf, MmapFileBytes(e.path));
    auto mapping = std::make_shared<MappedFile>(std::move(mf));
    std::string_view view = mapping->view();
    // Aliasing constructor: the keepalive owns the MappedFile, so the
    // mapping stays valid as long as any aliased BitVector (or retired
    // filter awaiting reclamation) still references it.
    AliasMapping alias{
        std::shared_ptr<const void>(mapping, view.data())};
    CCF_ASSIGN_OR_RETURN(filter,
                         ConditionalCuckooFilter::Deserialize(view, alias));
    num_alias_loads_.fetch_add(1, std::memory_order_relaxed);
  }
  const ConditionalCuckooFilter* raw = filter.get();
  e.hot_bytes = static_cast<size_t>(filter->SizeInBits() / 8);
  hot_bytes_.fetch_add(e.hot_bytes, std::memory_order_relaxed);
  e.referenced.store(1, std::memory_order_relaxed);
  e.live.Publish(std::move(filter));
  num_promotions_.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

Result<const ConditionalCuckooFilter*> FilterCatalog::HotFilter(
    Entry& e, const EpochDomain::Guard& guard, bool* promoted) {
  const ConditionalCuckooFilter* f = e.live.Load(guard);
  if (f != nullptr) {
    e.referenced.store(1, std::memory_order_relaxed);
    return f;
  }
  std::lock_guard lock(e.mu);
  f = e.live.Load(guard);  // double-check under the transition lock
  if (f != nullptr) {
    e.referenced.store(1, std::memory_order_relaxed);
    return f;
  }
  if (promoted != nullptr) *promoted = true;
  return PromoteLocked(e);
}

Status FilterCatalog::PrepareDemotionLocked(Entry& e,
                                            ConditionalCuckooFilter* cur) {
  auto* sharded = dynamic_cast<ShardedCcf*>(cur);
  if (sharded == nullptr) {
    // A range filter over a sharded inner stages through the same overlay;
    // its staged dyadic labels need the same pre-demotion flush.
    if (auto* range = dynamic_cast<RangeCcf*>(cur)) {
      sharded = range->sharded_inner();
    }
  }
  if (sharded != nullptr) {
    // Staged rows live only in the write-buffer overlay and Serialize()
    // captures committed tables, so a memory-backed demotion must commit
    // first or the re-promoted filter would answer false negatives. (A
    // file-backed entry has nothing staged: the first write clears its
    // path.) New stages can't race in: catalog writers go through
    // InsertBatch, which takes e.mu.
    if (sharded->pending_writes() > 0) {
      CCF_RETURN_NOT_OK(sharded->CommitWrites());
    }
    // Quiesce watermark resizes the commit may have scheduled so the
    // encoded blob and the accounting below see the final geometry.
    sharded->DrainMaintenance();
  }
  // Background autocommits and watermark resizes grow the filter without
  // touching Entry::hot_bytes; reconcile before the eviction subtracts it,
  // or the drift leaks residency out of hot_bytes_ and the budget
  // under-evicts.
  size_t actual = static_cast<size_t>(cur->SizeInBits() / 8);
  if (actual != e.hot_bytes) {
    hot_bytes_.fetch_add(actual, std::memory_order_relaxed);
    hot_bytes_.fetch_sub(e.hot_bytes, std::memory_order_relaxed);
    e.hot_bytes = actual;
  }
  return Status::OK();
}

Status FilterCatalog::ResolveInline(Entry& e, std::span<const uint64_t> keys,
                                    const Predicate* pred, bool* out) {
  bool promoted = false;
  {
    // The pin must cover both the Load/promotion and the probe: eviction
    // retires the filter into domain_, so reclamation cannot run past us.
    EpochDomain::Guard guard = domain_.Pin();
    CCF_ASSIGN_OR_RETURN(const ConditionalCuckooFilter* f,
                         HotFilter(e, guard, &promoted));
    std::span<bool> out_span(out, keys.size());
    if (pred != nullptr) {
      CCF_RETURN_NOT_OK(f->LookupBatch(
          keys, std::span<const Predicate>(pred, 1), out_span));
    } else {
      f->ContainsKeyBatch(keys, out_span);
    }
  }
  if (promoted) EnforceBudget();
  return Status::OK();
}

Status FilterCatalog::LookupBatch(const std::string& id,
                                  std::span<const uint64_t> keys,
                                  const Predicate& pred,
                                  std::span<bool> out) {
  if (out.size() != keys.size()) {
    return Status::Invalid("output size must match key count");
  }
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);
  num_inline_.fetch_add(1, std::memory_order_relaxed);
  return ResolveInline(*e, keys, &pred, out.data());
}

Status FilterCatalog::ContainsKeyBatch(const std::string& id,
                                       std::span<const uint64_t> keys,
                                       std::span<bool> out) {
  if (out.size() != keys.size()) {
    return Status::Invalid("output size must match key count");
  }
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);
  num_inline_.fetch_add(1, std::memory_order_relaxed);
  return ResolveInline(*e, keys, nullptr, out.data());
}

Status FilterCatalog::LookupRangeBatch(const std::string& id,
                                       std::span<const uint64_t> keys,
                                       uint64_t lo, uint64_t hi,
                                       const Predicate& other,
                                       std::span<bool> out) {
  if (out.size() != keys.size()) {
    return Status::Invalid("output size must match key count");
  }
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);
  num_inline_.fetch_add(1, std::memory_order_relaxed);
  bool promoted = false;
  Status st = [&]() -> Status {
    EpochDomain::Guard guard = domain_.Pin();
    CCF_ASSIGN_OR_RETURN(const ConditionalCuckooFilter* f,
                         HotFilter(*e, guard, &promoted));
    const auto* range = dynamic_cast<const RangeCcf*>(f);
    if (range == nullptr) {
      return Status::Invalid("catalog entry is not a range filter: " + id);
    }
    CCF_ASSIGN_OR_RETURN(CompiledRangePredicate pred,
                         range->CompileRange(lo, hi, other));
    return range->ContainsInRangeBatch(keys, pred, out);
  }();
  if (promoted) EnforceBudget();
  return st;
}

Status FilterCatalog::BatchedLookup(const std::string& id,
                                    std::span<const uint64_t> keys,
                                    const Predicate* pred,
                                    std::span<bool> out) {
  if (out.size() != keys.size()) {
    return Status::Invalid("output size must match key count");
  }
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);

  int prev = active_callers_.fetch_add(1, std::memory_order_acq_rel);
  Status st;
  if (ring_ == nullptr || prev == 0) {
    // Uncontended (or batcher off): aggregation has nothing to gain, skip
    // the handoff entirely.
    num_inline_.fetch_add(1, std::memory_order_relaxed);
    st = ResolveInline(*e, keys, pred, out.data());
  } else {
    BatchRequest req;
    req.entry = e;
    req.keys = keys;
    req.pred = pred;
    req.out = out.data();
    bool pushed = false;
    {
      std::lock_guard lock(producer_mu_);
      pushed = ring_->TryPush(&req);
    }
    if (!pushed) {
      num_inline_.fetch_add(1, std::memory_order_relaxed);
      st = ResolveInline(*e, keys, pred, out.data());
    } else {
      doorbell_.fetch_add(1, std::memory_order_release);
      doorbell_.notify_one();
      req.state.wait(0, std::memory_order_acquire);
      num_batched_.fetch_add(1, std::memory_order_relaxed);
      st = req.status;
    }
  }
  active_callers_.fetch_sub(1, std::memory_order_acq_rel);
  return st;
}

Status FilterCatalog::InsertBatch(const std::string& id,
                                  std::span<const uint64_t> keys,
                                  std::span<const uint64_t> attrs) {
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);

  bool grew = false;
  Status st = [&]() -> Status {
    std::lock_guard lock(e->mu);
    ConditionalCuckooFilter* cur = e->live.writable();
    if (cur == nullptr) {
      CCF_RETURN_NOT_OK(PromoteLocked(*e).status());
      cur = e->live.writable();
      grew = true;  // the promotion charged hot_bytes_
    }
    if (auto* range = dynamic_cast<RangeCcf*>(cur);
        range != nullptr && range->sharded_inner() != nullptr) {
      // Range filters take RAW rows: the η dyadic labels are expanded here
      // and staged as one atomically-published group per row. A plain-
      // inner RangeCcf falls through to the clone path below (its Clone
      // and InsertBatch carry the expansion).
      CCF_RETURN_NOT_OK(range->BufferWriteBatch(keys, attrs));
    } else if (auto* sharded = dynamic_cast<ShardedCcf*>(cur)) {
      // Sharded filters are live-writable while serving: stage through the
      // write-buffer overlay (autocommit options fold the commits in).
      CCF_RETURN_NOT_OK(sharded->BufferWriteBatch(keys, attrs));
    } else {
      // Clone shares the table snapshot; the first insert copy-on-writes
      // it (EnsureTableUnique), so an alias-loaded mapping is never written
      // through and concurrent readers keep probing the old epoch.
      CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> next,
                           cur->Clone());
      CCF_RETURN_NOT_OK(next->InsertBatch(keys, attrs));
      size_t new_bytes = static_cast<size_t>(next->SizeInBits() / 8);
      hot_bytes_.fetch_add(new_bytes, std::memory_order_relaxed);
      hot_bytes_.fetch_sub(e->hot_bytes, std::memory_order_relaxed);
      e->hot_bytes = new_bytes;
      e->live.Publish(std::move(next));
      grew = true;
    }
    // The hot filter now holds rows its file lacks: from here on the
    // entry is memory-backed, so eviction re-encodes its current state
    // instead of dropping the write.
    e->path.clear();
    return Status::OK();
  }();
  // A write-side promotion or clone-grown publish can push the fleet over
  // budget just like a lookup-side promotion: sweep after releasing e->mu
  // (mirrors ResolveInline/AddFilter) so a write-heavy workload can't
  // exceed hot_budget_bytes indefinitely.
  if (grew) EnforceBudget();
  return st;
}

Status FilterCatalog::Evict(const std::string& id) {
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);
  std::unique_lock lock(e->mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    return Status::Invalid("catalog entry busy (mid-transition): " + id);
  }
  ConditionalCuckooFilter* cur = e->live.writable();
  if (cur == nullptr) return Status::OK();  // already cold
  return DemoteLocked(*e, cur);
}

Status FilterCatalog::DemoteLocked(Entry& e, ConditionalCuckooFilter* cur) {
  CCF_RETURN_NOT_OK(PrepareDemotionLocked(e, cur));
  if (e.path.empty()) {
    // Memory-backed: capture the CURRENT state (mutations included) in
    // compressed form. File-backed entries reload from the file.
    e.cold_blob = EncodeFilterBlob(*cur);
  }
  // Publish(nullptr) retires the filter into the epoch domain: pinned
  // readers mid-probe keep a valid table until they unpin.
  e.live.Publish(nullptr);
  hot_bytes_.fetch_sub(e.hot_bytes, std::memory_order_relaxed);
  e.hot_bytes = 0;
  num_evictions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void FilterCatalog::EnforceBudget() {
  if (options_.hot_budget_bytes == 0) return;
  if (hot_bytes_.load(std::memory_order_relaxed) <= options_.hot_budget_bytes) {
    return;
  }
  std::lock_guard lock(evict_mu_);
  if (clock_.empty()) return;
  // Bounded scan: two full sweeps clear every reference bit, a third
  // guarantees progress on every evictable entry; entries we cannot evict
  // (busy, already cold, or the only hot one being probed) end the scan.
  size_t max_steps = 3 * clock_.size() + 8;
  for (size_t step = 0;
       step < max_steps &&
       hot_bytes_.load(std::memory_order_relaxed) > options_.hot_budget_bytes;
       ++step) {
    Entry* victim = clock_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % clock_.size();
    if (victim->live.Current() == nullptr) continue;  // already cold
    // Second chance: recently-used entries get their bit cleared and a
    // reprieve.
    if (victim->referenced.exchange(0, std::memory_order_acq_rel) != 0) {
      continue;
    }
    // Never block a lookup-side promotion or a writer: skip busy entries.
    std::unique_lock vlock(victim->mu, std::try_to_lock);
    if (!vlock.owns_lock()) continue;
    ConditionalCuckooFilter* cur = victim->live.writable();
    if (cur == nullptr) continue;  // lost a race with Evict
    // A failed staged-row commit leaves the victim hot (see
    // PrepareDemotionLocked); the sweep moves on.
    (void)DemoteLocked(*victim, cur);
  }
}

void FilterCatalog::BatcherLoop() {
  std::vector<BatchRequest*> batch;
  batch.reserve(64);
  while (true) {
    uint64_t bell = doorbell_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) break;

    batch.clear();
    BatchRequest* req = nullptr;
    while (ring_->TryPop(&req)) batch.push_back(req);

    if (batch.empty()) {
      // Ring drained and nothing gathered: sleep until the next push (or
      // shutdown) rings the bell.
      doorbell_.wait(bell, std::memory_order_acquire);
      continue;
    }

    if (options_.batcher_wait_us > 0) {
      // Linger briefly so concurrent callers that are about to push land
      // in THIS batch — that aggregation is the whole point.
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::microseconds(options_.batcher_wait_us);
      while (std::chrono::steady_clock::now() < deadline) {
        if (ring_->TryPop(&req)) {
          batch.push_back(req);
          continue;
        }
        if (active_callers_.load(std::memory_order_acquire) <=
            static_cast<int>(batch.size())) {
          break;  // nobody else is en route
        }
        std::this_thread::yield();
      }
    }

    ExecuteBatch(batch);
  }

  // Shutdown: resolve anything still parked so no caller waits forever.
  batch.clear();
  BatchRequest* req = nullptr;
  while (ring_->TryPop(&req)) batch.push_back(req);
  if (!batch.empty()) ExecuteBatch(batch);
}

void FilterCatalog::ExecuteBatch(std::vector<BatchRequest*>& batch) {
  // Group by entry, then by structurally-equal predicate, with simple
  // linear scans — batches are tens of requests, not thousands.
  std::vector<bool> done(batch.size(), false);
  std::vector<size_t> group;
  std::vector<uint64_t> keys_scratch;
  bool promoted_any = false;

  for (size_t i = 0; i < batch.size(); ++i) {
    if (done[i]) continue;
    group.clear();
    group.push_back(i);
    for (size_t j = i + 1; j < batch.size(); ++j) {
      if (done[j]) continue;
      if (batch[j]->entry == batch[i]->entry &&
          PredicatesEqual(batch[j]->pred, batch[i]->pred)) {
        group.push_back(j);
      }
    }

    Entry& e = *batch[i]->entry;
    EpochDomain::Guard guard = domain_.Pin();
    bool promoted = false;
    Result<const ConditionalCuckooFilter*> hot =
        HotFilter(e, guard, &promoted);
    promoted_any |= promoted;
    Status st;
    if (!hot.ok()) {
      st = hot.status();
    } else {
      const ConditionalCuckooFilter* f = *hot;
      size_t total = 0;
      for (size_t g : group) total += batch[g]->keys.size();
      keys_scratch.clear();
      keys_scratch.reserve(total);
      for (size_t g : group) {
        keys_scratch.insert(keys_scratch.end(), batch[g]->keys.begin(),
                            batch[g]->keys.end());
      }
      // std::vector<bool> is bit-packed; probe into a flat buffer instead.
      std::unique_ptr<bool[]> flat(new bool[total]());
      std::span<bool> out_span(flat.get(), total);
      if (batch[i]->pred != nullptr) {
        st = f->LookupBatch(
            keys_scratch,
            std::span<const Predicate>(batch[i]->pred, 1), out_span);
      } else {
        f->ContainsKeyBatch(keys_scratch, out_span);
      }
      if (st.ok()) {
        size_t off = 0;
        for (size_t g : group) {
          std::memcpy(batch[g]->out, flat.get() + off,
                      batch[g]->keys.size() * sizeof(bool));
          off += batch[g]->keys.size();
        }
      }
    }
    guard.Release();

    for (size_t g : group) {
      batch[g]->status = st;
      done[g] = true;
      batch[g]->state.store(1, std::memory_order_release);
      batch[g]->state.notify_one();
      // `batch[g]` is a caller stack frame: do not touch it past here.
    }
  }

  if (promoted_any) EnforceBudget();
}

size_t FilterCatalog::num_entries() const {
  std::shared_lock lock(map_mu_);
  return entries_.size();
}

CatalogStats FilterCatalog::stats() const {
  CatalogStats s;
  s.promotions = num_promotions_.load(std::memory_order_relaxed);
  s.evictions = num_evictions_.load(std::memory_order_relaxed);
  s.alias_loads = num_alias_loads_.load(std::memory_order_relaxed);
  s.batched_requests = num_batched_.load(std::memory_order_relaxed);
  s.inline_requests = num_inline_.load(std::memory_order_relaxed);
  s.hot_bytes = hot_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ccf
