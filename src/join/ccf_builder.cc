#include "join/ccf_builder.h"

#include <algorithm>
#include <utility>

#include "ccf/sharded_ccf.h"

namespace ccf {

CcfBuildParams LargeParams(CcfVariant variant) {
  CcfBuildParams p;
  p.variant = variant;
  p.key_fp_bits = 12;
  p.attr_fp_bits = 8;
  p.bloom_bits = 24;
  p.bloom_hashes = 4;  // §10.5: "4 hash functions for Bloom filters"
  return p;
}

CcfBuildParams SmallParams(CcfVariant variant) {
  CcfBuildParams p;
  p.variant = variant;
  p.key_fp_bits = 7;
  p.attr_fp_bits = 4;
  p.bloom_bits = 8;
  p.bloom_hashes = 2;
  return p;
}

Status BuiltCcf::ProbeKeys(std::span<const uint64_t> keys,
                           const std::vector<const QueryPredicate*>& preds,
                           std::span<bool> out) const {
  if (out.size() != keys.size()) {
    return Status::Invalid("ProbeKeys: out.size() must equal keys.size()");
  }
  if (preds.empty()) {
    filter->ContainsKeyBatch(keys, out);
    return Status::OK();
  }
  CCF_ASSIGN_OR_RETURN(Predicate pred, CompilePredicates(preds));
  return filter->LookupBatch(keys, std::span<const Predicate>(&pred, 1), out);
}

Result<Predicate> BuiltCcf::CompilePredicates(
    const std::vector<const QueryPredicate*>& preds) const {
  Predicate out;
  for (const QueryPredicate* p : preds) {
    CCF_ASSIGN_OR_RETURN(int attr, schema.IndexOf(p->column));
    if (!p->is_range) {
      out.AndEquals(attr, p->value);
      continue;
    }
    if (!year_binner.has_value()) {
      return Status::Invalid("range predicate on a table without a binner");
    }
    out.AndIn(attr, year_binner->Cover(p->lo, p->hi));
  }
  return out;
}

namespace {

// Rows presented to the CCF: key + predicate-column values, with
// production_year replaced by its bin id. Columnar: one flat row-major
// attribute matrix instead of a heap vector per row, so extraction writes
// three flat arrays with zero per-row allocation — and the flat matrix is
// exactly the shape InsertBatch / InsertParallel consume.
struct SketchRows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;  // row-major, keys.size() * num_attrs
  std::vector<uint64_t> distinct_dupes_per_key;
};

Result<SketchRows> ExtractRows(const TableData& table,
                               const std::optional<RangeBinner>& binner) {
  SketchRows rows;
  CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                       table.table.column(table.spec.key_column));
  std::vector<const std::vector<uint64_t>*> attr_cols;
  for (const std::string& col : table.spec.predicate_columns) {
    CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* c,
                         table.table.column(col));
    attr_cols.push_back(c);
  }
  uint64_t n = key_col->size();
  rows.keys.reserve(n);
  rows.flat_attrs.reserve(n * attr_cols.size());
  bool has_year = false;
  size_t year_idx = 0;
  for (size_t i = 0; i < table.spec.predicate_columns.size(); ++i) {
    if (table.spec.predicate_columns[i] == "production_year") {
      has_year = true;
      year_idx = i;
    }
  }
  // Per-key distinct attribute-vector counts for §8 sizing: collect
  // (key, row signature) pairs and sort/dedupe instead of a map of sets —
  // two flat arrays and one sort versus n hash-map node allocations. The
  // signature is the same FNV mix as before, so counts are identical
  // (DuplicateProfile::FromCounts is order-independent).
  std::vector<std::pair<uint64_t, uint64_t>> key_sigs;
  key_sigs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t sig = 0xcbf29ce484222325ull;
    for (size_t a = 0; a < attr_cols.size(); ++a) {
      uint64_t v = (*attr_cols[a])[i];
      if (has_year && a == year_idx && binner.has_value()) {
        v = binner->BinOf(static_cast<int64_t>(v));
      }
      rows.flat_attrs.push_back(v);
      sig = (sig ^ v) * 0x100000001b3ull;
    }
    rows.keys.push_back((*key_col)[i]);
    key_sigs.emplace_back(rows.keys.back(), sig);
  }
  std::sort(key_sigs.begin(), key_sigs.end());
  key_sigs.erase(std::unique(key_sigs.begin(), key_sigs.end()),
                 key_sigs.end());
  for (size_t i = 0; i < key_sigs.size();) {
    size_t j = i;
    while (j < key_sigs.size() && key_sigs[j].first == key_sigs[i].first) ++j;
    rows.distinct_dupes_per_key.push_back(j - i);
    i = j;
  }
  return rows;
}

}  // namespace

Result<BuiltCcf> BuildCcf(const TableData& table,
                          const CcfBuildParams& params) {
  BuiltCcf built;
  built.source = &table;
  built.schema = AttributeSchema(table.spec.predicate_columns);
  for (const std::string& col : table.spec.predicate_columns) {
    if (col == "production_year") {
      CCF_ASSIGN_OR_RETURN(RangeBinner binner,
                           RangeBinner::Make(kYearLo, kYearHi, kYearBins));
      built.year_binner = binner;
    }
  }

  CCF_ASSIGN_OR_RETURN(SketchRows rows,
                       ExtractRows(table, built.year_binner));

  CcfConfig config;
  config.key_fp_bits = params.key_fp_bits;
  config.attr_fp_bits = params.attr_fp_bits;
  config.num_attrs = static_cast<int>(table.spec.predicate_columns.size());
  config.max_dupes = params.max_dupes;
  config.max_chain = params.max_chain;
  config.bloom_bits = params.bloom_bits;
  config.bloom_hashes = params.bloom_hashes;
  config.optimize_bloom_hashes = params.optimize_bloom_hashes;
  config.salt = params.salt;
  config.slots_per_bucket = params.slots_per_bucket;

  DuplicateProfile profile = DuplicateProfile::FromCounts(
      rows.distinct_dupes_per_key, config.max_dupes, config.max_chain);
  CCF_ASSIGN_OR_RETURN(config,
                       ChooseGeometry(params.variant, config, profile));

  // Sharded builds: no whole-filter doubling-retry loop anymore. The shards
  // resize THEMSELVES online — a shard whose InsertParallel slice hits
  // CapacityError rebuilds at doubled geometry from its retained row log
  // (re-placing rows from the per-shard hash memo) and publishes the
  // replacement via epoch swap, while the other shards' builds proceed.
  // This is the same machinery that lets a serving filter absorb
  // capacity-crossing inserts without a stop-the-world rebuild.
  if (params.num_shards > 1) {
    ShardedCcfOptions opts;
    opts.num_shards = params.num_shards;
    opts.build_threads = params.build_threads;
    opts.max_auto_resizes = params.max_rebuilds;
    opts.resize_watermark = params.resize_watermark;
    if (params.compact_watermark >= 0.0) {
      opts.compact_watermark = params.compact_watermark;
    }
    CCF_ASSIGN_OR_RETURN(std::unique_ptr<ShardedCcf> sharded,
                         ShardedCcf::Make(params.variant, config, opts));
    Status st;
    if (params.live_write_batch > 0) {
      // Incremental-build entry point: grow the filter exactly the way a
      // serving instance absorbs live traffic — stage a chunk into the
      // per-shard write buffers, publish it with an epoch-swapped commit,
      // repeat. The filter answers queries (wait-free, overlay-visible)
      // after every chunk; watermark-triggered background resizes keep
      // CapacityError off the commit path when params.resize_watermark is
      // set.
      const size_t num_attrs = static_cast<size_t>(config.num_attrs);
      const size_t chunk = static_cast<size_t>(params.live_write_batch);
      // CRUD churn state: transient rows march through a three-chunk
      // lifecycle (inserted → updated → erased) with keys from a reserved
      // range no synthetic-IMDB table touches, so after the final flush the
      // surviving rows are exactly the dataset rows.
      uint64_t churn_counter = 0;
      std::vector<uint64_t> churn_fresh;    // inserted last chunk (attrs v0)
      std::vector<uint64_t> churn_updated;  // updated last chunk (attrs v1)
      auto churn_key = [](uint64_t c) { return 0x7fffffff00000000ull | c; };
      auto churn_attrs = [&](uint64_t c, uint64_t version) {
        std::vector<uint64_t> a(num_attrs);
        for (size_t j = 0; j < num_attrs; ++j) {
          a[j] = c * 131 + version * 17 + j;
        }
        return a;
      };
      auto stage_churn = [&]() -> Status {
        for (uint64_t c : churn_updated) {
          CCF_RETURN_NOT_OK(
              sharded->BufferErase(churn_key(c), churn_attrs(c, 1)));
        }
        churn_updated.clear();
        for (uint64_t c : churn_fresh) {
          CCF_RETURN_NOT_OK(sharded->BufferUpdate(
              churn_key(c), churn_attrs(c, 0), churn_attrs(c, 1)));
          churn_updated.push_back(c);
        }
        churn_fresh.clear();
        for (uint64_t i = 0; i < params.live_churn_rows; ++i) {
          uint64_t c = churn_counter++;
          CCF_RETURN_NOT_OK(
              sharded->BufferWrite(churn_key(c), churn_attrs(c, 0)));
          churn_fresh.push_back(c);
        }
        return Status::OK();
      };
      for (size_t begin = 0; begin < rows.keys.size() && st.ok();
           begin += chunk) {
        size_t n = std::min(chunk, rows.keys.size() - begin);
        st = sharded->BufferWriteBatch(
            std::span<const uint64_t>(rows.keys.data() + begin, n),
            std::span<const uint64_t>(rows.flat_attrs.data() +
                                          begin * num_attrs,
                                      n * num_attrs));
        if (st.ok() && params.live_churn_rows > 0) st = stage_churn();
        if (st.ok()) st = sharded->CommitWrites();
      }
      // Flush the churn rows still mid-lifecycle so only dataset rows
      // survive (updated rows carry attrs v1, fresh ones still v0).
      if (st.ok() && params.live_churn_rows > 0) {
        for (uint64_t c : churn_updated) {
          if (!st.ok()) break;
          st = sharded->BufferErase(churn_key(c), churn_attrs(c, 1));
        }
        for (uint64_t c : churn_fresh) {
          if (!st.ok()) break;
          st = sharded->BufferErase(churn_key(c), churn_attrs(c, 0));
        }
        if (st.ok()) st = sharded->CommitWrites();
      }
      sharded->DrainMaintenance();
    } else {
      std::vector<uint64_t> hash_memo;
      st = sharded->InsertParallel(rows.keys, rows.flat_attrs,
                                   /*num_threads=*/0, &hash_memo);
    }
    if (!st.ok()) {
      return Status::CapacityError(
          "CCF for table '" + table.spec.name + "' failed after per-shard "
          "online resizes: " + st.message());
    }
    if (params.live_write_batch > 0 && params.live_differential_check) {
      // The CRUD acceptance gate: compact every shard, then prove each
      // shard's table serializes bit-identical to a from-scratch batched
      // build of its surviving rows at the same geometry. The build
      // history — incremental commits, churn, reclamation residue,
      // mid-build resizes — must be unobservable.
      CCF_RETURN_NOT_OK(sharded->Compact());
      const size_t num_attrs = static_cast<size_t>(config.num_attrs);
      const int num_shards = sharded->num_shards();
      std::vector<std::vector<uint64_t>> shard_keys(
          static_cast<size_t>(num_shards));
      std::vector<std::vector<uint64_t>> shard_attrs(
          static_cast<size_t>(num_shards));
      for (size_t i = 0; i < rows.keys.size(); ++i) {
        size_t s = sharded->ShardOf(rows.keys[i]);
        shard_keys[s].push_back(rows.keys[i]);
        shard_attrs[s].insert(
            shard_attrs[s].end(),
            rows.flat_attrs.begin() + static_cast<ptrdiff_t>(i * num_attrs),
            rows.flat_attrs.begin() +
                static_cast<ptrdiff_t>((i + 1) * num_attrs));
      }
      for (int s = 0; s < num_shards; ++s) {
        const ConditionalCuckooFilter& live = sharded->shard(s);
        CCF_ASSIGN_OR_RETURN(
            std::unique_ptr<ConditionalCuckooFilter> scratch,
            ConditionalCuckooFilter::Make(params.variant, live.config()));
        CCF_RETURN_NOT_OK(scratch->InsertBatch(
            shard_keys[static_cast<size_t>(s)],
            shard_attrs[static_cast<size_t>(s)]));
        if (scratch->Serialize() != live.Serialize()) {
          return Status::Internal(
              "live CRUD differential for table '" + table.spec.name +
              "': shard " + std::to_string(s) +
              " diverges from a from-scratch build of its surviving rows");
        }
      }
    }
    built.rebuilds = static_cast<int>(sharded->num_resizes());
    built.compactions = static_cast<int>(sharded->num_compactions());
    built.filter = std::move(sharded);
    return built;
  }

  // The hash memo carries each row's salt-keyed key hash across doubling
  // rebuilds: attempt 0 fills it during the batched address pass, and every
  // retry re-masks the cached hashes instead of re-hashing the table.
  std::vector<uint64_t> hash_memo;
  const size_t num_attrs = static_cast<size_t>(config.num_attrs);
  Status last_error = Status::OK();
  for (int attempt = 0; attempt <= params.max_rebuilds; ++attempt) {
    bool ok = true;
    CCF_ASSIGN_OR_RETURN(built.filter,
                         ConditionalCuckooFilter::Make(params.variant,
                                                       config));
    if (params.batch_build) {
      Status st =
          built.filter->InsertBatch(rows.keys, rows.flat_attrs, &hash_memo);
      if (!st.ok()) {
        last_error = std::move(st);
        ok = false;
      }
    } else {
      // Row-at-a-time reference path: placement order (hence slot
      // assignment and FP-level outputs) reproduces pre-batch builds
      // exactly; reproduction tooling pins this mode.
      for (size_t i = 0; i < rows.keys.size(); ++i) {
        Status st = built.filter->Insert(
            rows.keys[i],
            std::span<const uint64_t>(
                rows.flat_attrs.data() + i * num_attrs, num_attrs));
        if (!st.ok()) {
          last_error = std::move(st);
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      built.rebuilds = attempt;
      return built;
    }
    config.num_buckets *= 2;  // §4.1's resize rule
  }
  return Status::CapacityError(
      "CCF for table '" + table.spec.name + "' failed after " +
      std::to_string(params.max_rebuilds) + " rebuilds: " +
      last_error.message());
}

Result<std::vector<BuiltCcf>> BuildAllCcfs(const ImdbDataset& dataset,
                                           const CcfBuildParams& params) {
  std::vector<BuiltCcf> out;
  out.reserve(dataset.tables.size());
  for (const TableData& table : dataset.tables) {
    CCF_ASSIGN_OR_RETURN(BuiltCcf built, BuildCcf(table, params));
    out.push_back(std::move(built));
  }
  return out;
}

}  // namespace ccf
