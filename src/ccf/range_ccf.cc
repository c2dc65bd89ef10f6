#include "ccf/range_ccf.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

namespace ccf {

RangeCcf::RangeCcf(std::unique_ptr<ConditionalCuckooFilter> inner,
                   int range_attr_index, int max_level)
    : inner_(std::move(inner)),
      sharded_(dynamic_cast<ShardedCcf*>(inner_.get())),
      range_attr_(range_attr_index),
      max_level_(max_level),
      make_variant_(inner_->variant()),
      make_config_(inner_->config()) {}

namespace {

Status ValidateRangeParams(const CcfConfig& config, int range_attr_index,
                           int max_level) {
  if (range_attr_index < 0 || range_attr_index >= config.num_attrs) {
    return Status::Invalid("range_attr_index out of schema range");
  }
  if (max_level < 0 || max_level > kMaxDyadicLevel) {
    return Status::Invalid("max_level must be in [0, 57]");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RangeCcf>> RangeCcf::Make(CcfVariant variant,
                                                 const CcfConfig& config,
                                                 int range_attr_index,
                                                 int max_level) {
  CCF_RETURN_NOT_OK(ValidateRangeParams(config, range_attr_index, max_level));
  // Dyadic labels are large (level in the top bits), so exact small-value
  // storage never applies to them; that is fine — they hash uniformly.
  CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> inner,
                       ConditionalCuckooFilter::Make(variant, config));
  auto filter = std::unique_ptr<RangeCcf>(
      new RangeCcf(std::move(inner), range_attr_index, max_level));
  filter->make_config_ = config;
  return filter;
}

Result<std::unique_ptr<RangeCcf>> RangeCcf::MakeSharded(
    CcfVariant variant, const CcfConfig& config, int range_attr_index,
    int max_level, const ShardedCcfOptions& options) {
  CCF_RETURN_NOT_OK(ValidateRangeParams(config, range_attr_index, max_level));
  CCF_ASSIGN_OR_RETURN(std::unique_ptr<ShardedCcf> inner,
                       ShardedCcf::Make(variant, config, options));
  auto filter = std::unique_ptr<RangeCcf>(
      new RangeCcf(std::move(inner), range_attr_index, max_level));
  filter->make_config_ = config;
  filter->sharded_options_ = options;
  return filter;
}

Status RangeCcf::ExpandRow(uint64_t key, std::span<const uint64_t> attrs,
                           std::vector<uint64_t>* keys,
                           std::vector<uint64_t>* out_attrs) const {
  if (static_cast<int>(attrs.size()) != config().num_attrs) {
    return Status::Invalid("attribute count does not match schema");
  }
  uint64_t value = attrs[static_cast<size_t>(range_attr_)];
  CCF_RETURN_NOT_OK(ValidateDyadicValue(value, max_level_));
  // The η labels of DyadicLabels(value, max_level_), written in place.
  for (int level = 0; level <= max_level_; ++level) {
    keys->push_back(key);
    size_t base = out_attrs->size();
    out_attrs->insert(out_attrs->end(), attrs.begin(), attrs.end());
    (*out_attrs)[base + static_cast<size_t>(range_attr_)] =
        DyadicInterval{level, value >> level}.Label();
  }
  return Status::OK();
}

void RangeCcf::LogRow(uint64_t key, std::span<const uint64_t> attrs) {
  std::lock_guard<std::mutex> lock(log_mu_);
  log_keys_.push_back(key);
  log_attrs_.insert(log_attrs_.end(), attrs.begin(), attrs.end());
  ++num_rows_;
}

Status RangeCcf::RebuildFromLog() {
  std::lock_guard<std::mutex> lock(log_mu_);
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  const size_t eta = static_cast<size_t>(max_level_) + 1;
  std::vector<uint64_t> xkeys;
  std::vector<uint64_t> xattrs;
  xkeys.reserve(log_keys_.size() * eta);
  xattrs.reserve(log_keys_.size() * eta * num_attrs);
  for (size_t r = 0; r < log_keys_.size(); ++r) {
    CCF_RETURN_NOT_OK(ExpandRow(
        log_keys_[r],
        std::span<const uint64_t>(log_attrs_.data() + r * num_attrs,
                                  num_attrs),
        &xkeys, &xattrs));
  }
  std::unique_ptr<ConditionalCuckooFilter> fresh;
  if (sharded_ != nullptr) {
    CCF_ASSIGN_OR_RETURN(std::unique_ptr<ShardedCcf> f,
                         ShardedCcf::Make(make_variant_, make_config_,
                                          sharded_options_));
    fresh = std::move(f);
  } else {
    // The current geometry, not the construction one: the inner filter has
    // held this row set at it, so the rebuild has the best odds.
    CCF_ASSIGN_OR_RETURN(fresh, ConditionalCuckooFilter::Make(
                                    make_variant_, inner_->config()));
  }
  if (!xkeys.empty()) {
    CCF_RETURN_NOT_OK(fresh->InsertBatch(xkeys, xattrs));
  }
  inner_ = std::move(fresh);
  sharded_ = dynamic_cast<ShardedCcf*>(inner_.get());
  return Status::OK();
}

Status RangeCcf::Insert(uint64_t key, std::span<const uint64_t> attrs) {
  if (static_cast<int>(attrs.size()) != config().num_attrs) {
    return Status::Invalid("attribute count does not match schema");
  }
  uint64_t value = attrs[static_cast<size_t>(range_attr_)];
  CCF_ASSIGN_OR_RETURN(std::vector<DyadicInterval> labels,
                       DyadicLabels(value, max_level_));
  std::vector<uint64_t> row(attrs.begin(), attrs.end());
  // η insertions per item (§9.1): one per containing dyadic interval.
  for (size_t j = 0; j < labels.size(); ++j) {
    row[static_cast<size_t>(range_attr_)] = labels[j].Label();
    Status st = inner_->Insert(key, row);
    if (st.ok()) continue;
    // All-or-nothing: levels 0..j-1 already landed; a level-gapped row
    // answers range queries false (a cover probing level j misses) — a
    // false negative. A single failed inner insert leaves its table
    // bit-for-bit untouched (the displacement chain unwinds), so the row
    // level is the only partiality to undo: rebuild from the accepted-row
    // log, which excludes this row.
    if (j == 0) return st;
    Status rollback = RebuildFromLog();
    if (!rollback.ok()) {
      return Status::Internal(
          "rollback rebuild failed after a mid-row insertion failure; "
          "partial dyadic levels remain (range queries may answer false "
          "negatives until the filter is rebuilt): " + rollback.message());
    }
    return st;
  }
  LogRow(key, attrs);
  return Status::OK();
}

Status RangeCcf::InsertBatch(std::span<const uint64_t> keys,
                             std::span<const uint64_t> attrs,
                             std::vector<uint64_t>* hash_memo) {
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  if (attrs.size() != keys.size() * num_attrs) {
    return Status::Invalid(
        "InsertBatch: attrs must hold keys.size() * num_attrs values");
  }
  if (hash_memo != nullptr && !hash_memo->empty() &&
      hash_memo->size() != 2 * keys.size()) {
    return Status::Invalid(
        "InsertBatch: hash_memo must be empty or hold two words per key");
  }
  const size_t eta = static_cast<size_t>(max_level_) + 1;
  std::vector<uint64_t> xkeys;
  std::vector<uint64_t> xattrs;
  xkeys.reserve(keys.size() * eta);
  xattrs.reserve(keys.size() * eta * num_attrs);
  // Validate-then-mutate: every row expands (rejecting out-of-domain
  // values) before any row touches the table.
  for (size_t i = 0; i < keys.size(); ++i) {
    CCF_RETURN_NOT_OK(ExpandRow(keys[i],
                                attrs.subspan(i * num_attrs, num_attrs),
                                &xkeys, &xattrs));
  }
  Status st = inner_->InsertBatch(xkeys, xattrs);
  if (!st.ok()) {
    // Batch-granular all-or-nothing: the inner batch stopped mid-way with
    // an unknown subset of label rows placed; restore the pre-batch row
    // set from the log (which excludes this batch).
    Status rollback = RebuildFromLog();
    if (!rollback.ok()) {
      return Status::Internal(
          "rollback rebuild failed after a mid-batch insertion failure; "
          "partial rows remain: " + rollback.message());
    }
    return st;
  }
  std::lock_guard<std::mutex> lock(log_mu_);
  log_keys_.insert(log_keys_.end(), keys.begin(), keys.end());
  log_attrs_.insert(log_attrs_.end(), attrs.begin(), attrs.end());
  num_rows_ += keys.size();
  return Status::OK();
}

Result<std::unique_ptr<ConditionalCuckooFilter>> RangeCcf::Clone() const {
  CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> inner_clone,
                       inner_->Clone());
  auto copy = std::unique_ptr<RangeCcf>(
      new RangeCcf(std::move(inner_clone), range_attr_, max_level_));
  copy->make_variant_ = make_variant_;
  copy->make_config_ = make_config_;
  copy->sharded_options_ = sharded_options_;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    copy->log_keys_ = log_keys_;
    copy->log_attrs_ = log_attrs_;
    copy->num_rows_ = num_rows_;
  }
  return std::unique_ptr<ConditionalCuckooFilter>(std::move(copy));
}

Predicate RangeCcf::TranslatePredicate(const Predicate& pred) const {
  Predicate out;
  for (const AttributeTerm& term : pred.terms()) {
    if (term.attr_index != range_attr_) {
      out.AndIn(term.attr_index, term.values);
      continue;
    }
    // Level-0 labels equal the raw value for in-domain values, so this is
    // an identity modulo dropping out-of-domain values — which can never
    // have been inserted, so dropping them (empty in-list = matches
    // nothing) is exact, not approximate.
    std::vector<uint64_t> labels;
    labels.reserve(term.values.size());
    for (uint64_t v : term.values) {
      if (v < kDyadicDomainSize) {
        labels.push_back(DyadicInterval{0, v}.Label());
      }
    }
    out.AndIn(term.attr_index, std::move(labels));
  }
  return out;
}

bool RangeCcf::Contains(uint64_t key, const Predicate& pred) const {
  return inner_->Contains(key, TranslatePredicate(pred));
}

Status RangeCcf::LookupBatch(std::span<const uint64_t> keys,
                             std::span<const Predicate> preds,
                             std::span<bool> out) const {
  CCF_RETURN_NOT_OK(
      ValidateLookupBatchShape(keys.size(), preds.size(), out.size()));
  std::vector<Predicate> translated;
  translated.reserve(preds.size());
  for (const Predicate& p : preds) {
    translated.push_back(TranslatePredicate(p));
  }
  return inner_->LookupBatch(keys, translated, out);
}

Result<std::unique_ptr<KeyFilter>> RangeCcf::PredicateQuery(
    const Predicate& pred) const {
  return inner_->PredicateQuery(TranslatePredicate(pred));
}

Result<CompiledRangePredicate> RangeCcf::CompileRange(
    uint64_t lo, uint64_t hi, const Predicate& other) const {
  for (const AttributeTerm& term : other.terms()) {
    if (term.attr_index < 0 || term.attr_index >= config().num_attrs) {
      return Status::Invalid("CompileRange: predicate term out of schema");
    }
  }
  CompiledRangePredicate out;
  out.pred = TranslatePredicate(other);
  // Clamp the upper bound into the dyadic domain: no inserted value can
  // exceed it (Insert rejects them), so an open-ended hi loses nothing.
  // A lo past the domain (or past hi) leaves an empty cover — the
  // predicate matches nothing.
  uint64_t clamped_hi = std::min(hi, kDyadicDomainSize - 1);
  out.lo = lo;
  out.hi = clamped_hi;
  std::vector<uint64_t> labels;
  if (lo <= clamped_hi && lo < kDyadicDomainSize) {
    Result<std::vector<DyadicInterval>> cover =
        DyadicCover(lo, clamped_hi, max_level_);
    if (!cover.ok()) {
      // Bounds are in-domain and max_level was validated at construction,
      // so the only remaining failure is a cover wider than
      // kMaxDyadicCoverIntervals. Degrade to a range-free probe (the
      // `other` terms alone): a strict superset of the exact answer, so
      // the no-false-negative guarantee holds — the filter just stops
      // pruning on the range dimension for this one oversized query.
      out.cover_size = 0;
      return out;
    }
    labels.reserve(cover->size());
    for (const DyadicInterval& interval : *cover) {
      labels.push_back(interval.Label());
    }
  }
  out.cover_size = labels.size();
  out.pred.AndIn(range_attr_, std::move(labels));
  return out;
}

bool RangeCcf::ContainsInRange(uint64_t key, uint64_t lo, uint64_t hi,
                               const Predicate& other) const {
  Result<CompiledRangePredicate> compiled = CompileRange(lo, hi, other);
  if (!compiled.ok()) return false;  // out-of-schema `other`: matches nothing
  return inner_->Contains(key, compiled->pred);
}

Status RangeCcf::ContainsInRangeBatch(std::span<const uint64_t> keys,
                                      const CompiledRangePredicate& pred,
                                      std::span<bool> out) const {
  CCF_RETURN_NOT_OK(ValidateLookupBatchShape(keys.size(), 1, out.size()));
  // One broadcast predicate, millions of keys: the inner batch pipeline
  // prefetches; the cover was compiled once up front.
  return inner_->LookupBatch(keys,
                             std::span<const Predicate>(&pred.pred, 1), out);
}

// --- Live writes (sharded inner) --------------------------------------------

Status RangeCcf::BufferWrite(uint64_t key, std::span<const uint64_t> attrs) {
  if (sharded_ == nullptr) {
    return Status::Invalid(
        "RangeCcf::BufferWrite requires a sharded inner (MakeSharded)");
  }
  std::vector<uint64_t> xkeys;
  std::vector<uint64_t> xattrs;
  CCF_RETURN_NOT_OK(ExpandRow(key, attrs, &xkeys, &xattrs));
  // All η label rows share the key, so they route to ONE shard and the
  // sharded batch stager publishes them with a single release store: a
  // concurrent range reader sees the whole level set or none of it.
  CCF_RETURN_NOT_OK(sharded_->BufferWriteBatch(xkeys, xattrs));
  LogRow(key, attrs);
  return Status::OK();
}

Status RangeCcf::BufferWriteBatch(std::span<const uint64_t> keys,
                                  std::span<const uint64_t> attrs) {
  if (sharded_ == nullptr) {
    return Status::Invalid(
        "RangeCcf::BufferWriteBatch requires a sharded inner (MakeSharded)");
  }
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  if (attrs.size() != keys.size() * num_attrs) {
    return Status::Invalid(
        "BufferWriteBatch: attrs must hold keys.size() * num_attrs values");
  }
  const size_t eta = static_cast<size_t>(max_level_) + 1;
  std::vector<uint64_t> xkeys;
  std::vector<uint64_t> xattrs;
  xkeys.reserve(keys.size() * eta);
  xattrs.reserve(keys.size() * eta * num_attrs);
  for (size_t i = 0; i < keys.size(); ++i) {
    CCF_RETURN_NOT_OK(ExpandRow(keys[i],
                                attrs.subspan(i * num_attrs, num_attrs),
                                &xkeys, &xattrs));
  }
  // Per-shard group publish keeps each row's η labels atomic (a row's
  // labels never split across shards — routing hashes the key).
  CCF_RETURN_NOT_OK(sharded_->BufferWriteBatch(xkeys, xattrs));
  std::lock_guard<std::mutex> lock(log_mu_);
  log_keys_.insert(log_keys_.end(), keys.begin(), keys.end());
  log_attrs_.insert(log_attrs_.end(), attrs.begin(), attrs.end());
  num_rows_ += keys.size();
  return Status::OK();
}

uint64_t RangeCcf::num_rows() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return num_rows_;
}

Status RangeCcf::CommitWrites(int num_threads) {
  if (sharded_ == nullptr) {
    return Status::Invalid(
        "RangeCcf::CommitWrites requires a sharded inner (MakeSharded)");
  }
  return sharded_->CommitWrites(num_threads);
}

uint64_t RangeCcf::pending_writes() const {
  return sharded_ == nullptr ? 0 : sharded_->pending_writes();
}

void RangeCcf::DrainMaintenance() {
  if (sharded_ != nullptr) sharded_->DrainMaintenance();
}

// --- Serialization -----------------------------------------------------------

std::string RangeCcf::Serialize() const {
  std::string out;
  ByteWriter writer(&out);
  writer.WriteU32(kMagic);
  writer.WriteU32(static_cast<uint32_t>(range_attr_));
  writer.WriteU32(static_cast<uint32_t>(max_level_));
  writer.WriteU32(static_cast<uint32_t>(config().num_attrs));
  std::lock_guard<std::mutex> lock(log_mu_);
  writer.WriteU64(num_rows_);
  writer.WriteU64(log_keys_.size());
  for (uint64_t k : log_keys_) writer.WriteU64(k);
  for (uint64_t a : log_attrs_) writer.WriteU64(a);
  writer.AlignTo(8);
  // The inner blob rides raw at an 8-aligned offset, so its internal
  // word-array alignment survives and alias-mode loads work through it.
  out += inner_->Serialize();
  return out;
}

Result<std::unique_ptr<ConditionalCuckooFilter>> RangeCcf::Deserialize(
    std::string_view data, const AliasMapping* alias) {
  ByteReader reader(data);
  CCF_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) {
    return Status::Invalid("not a serialized RangeCcf");
  }
  CCF_ASSIGN_OR_RETURN(uint32_t range_attr_u, reader.ReadU32());
  CCF_ASSIGN_OR_RETURN(uint32_t max_level_u, reader.ReadU32());
  CCF_ASSIGN_OR_RETURN(uint32_t num_attrs_u, reader.ReadU32());
  CCF_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadU64());
  CCF_ASSIGN_OR_RETURN(uint64_t log_rows, reader.ReadU64());
  if (num_attrs_u == 0 || num_attrs_u > 64) {
    return Status::Invalid("serialized RangeCcf has a bad attribute count");
  }
  if (log_rows > reader.remaining() / 8 ||
      log_rows * num_attrs_u > reader.remaining() / 8) {
    return Status::OutOfRange("serialized buffer truncated");
  }
  std::vector<uint64_t> log_keys(static_cast<size_t>(log_rows));
  std::vector<uint64_t> log_attrs(static_cast<size_t>(log_rows) *
                                  num_attrs_u);
  CCF_ASSIGN_OR_RETURN(std::string_view raw_keys,
                       reader.ReadRaw(log_keys.size() * 8));
  std::memcpy(log_keys.data(), raw_keys.data(), raw_keys.size());
  CCF_ASSIGN_OR_RETURN(std::string_view raw_attrs,
                       reader.ReadRaw(log_attrs.size() * 8));
  std::memcpy(log_attrs.data(), raw_attrs.data(), raw_attrs.size());
  CCF_RETURN_NOT_OK(reader.AlignTo(8));
  CCF_ASSIGN_OR_RETURN(std::string_view inner_blob,
                       reader.ReadRaw(reader.remaining()));
  std::unique_ptr<ConditionalCuckooFilter> inner;
  if (alias != nullptr) {
    CCF_ASSIGN_OR_RETURN(
        inner, ConditionalCuckooFilter::Deserialize(inner_blob, *alias));
  } else {
    CCF_ASSIGN_OR_RETURN(inner,
                         ConditionalCuckooFilter::Deserialize(inner_blob));
  }
  CCF_RETURN_NOT_OK(ValidateRangeParams(inner->config(),
                                        static_cast<int>(range_attr_u),
                                        static_cast<int>(max_level_u)));
  if (static_cast<uint32_t>(inner->config().num_attrs) != num_attrs_u) {
    return Status::Invalid(
        "serialized RangeCcf header disagrees with the inner schema");
  }
  auto filter = std::unique_ptr<RangeCcf>(
      new RangeCcf(std::move(inner), static_cast<int>(range_attr_u),
                   static_cast<int>(max_level_u)));
  // Reconstruct the rebuild parameters from the loaded inner: for a
  // sharded inner the construction config carried the TOTAL bucket budget
  // and the options the shard count (the row SET a rollback restores is
  // exact either way; only placement may differ from the original build).
  if (filter->sharded_ != nullptr) {
    filter->sharded_options_.num_shards = filter->sharded_->num_shards();
    filter->make_config_.num_buckets =
        filter->make_config_.num_buckets *
        static_cast<uint64_t>(filter->sharded_->num_shards());
  }
  filter->num_rows_ = num_rows;
  filter->log_keys_ = std::move(log_keys);
  filter->log_attrs_ = std::move(log_attrs);
  return std::unique_ptr<ConditionalCuckooFilter>(std::move(filter));
}

}  // namespace ccf
