// ccf_joblight: command-line driver for the JOB-light evaluation. Runs the
// synthetic-IMDB workload with a chosen variant and parameters, printing
// per-table filter sizes and the aggregate reduction factors / FPRs.
//
// Usage:
//   ccf_joblight [--scale N] [--variant bloom|mixed|chained]
//                [--attr-bits B] [--key-bits B] [--bloom-bits B]
//                [--seed S] [--per-instance]
//                [--build scalar|batch]
//                [--live-writes] [--shards N] [--write-batch N]
//
// --build defaults to scalar: the row-at-a-time insertion order makes slot
// assignment — and therefore the FP-level RF/FPR numbers printed here —
// reproducible run-over-run and commit-over-commit. --build batch uses the
// production bulk-build pipeline (same guarantees and entry counts;
// placement order differs, so FP noise may shift in the last decimals).
//
// --live-writes builds each table's filter through the SERVING write path
// instead of the offline bulk build: a sharded filter (default 8 shards,
// override with --shards) absorbs the rows as epoch-published write-batch
// commits of --write-batch rows (default 8192) with the load-factor
// watermark resize policy active (0.85) — the filter stays wait-free
// queryable the whole time. Query answers keep the usual guarantees; slot
// placement (hence FP noise) reflects the commit schedule rather than the
// one-shot build.
//
// --live-crud extends --live-writes (implying it) with the full CRUD
// serving path: every commit chunk also pushes --churn transient rows
// (default 1024, keys disjoint from the dataset) through an
// insert → update → erase lifecycle, exercising tombstone commits, native
// slot reclamation, and watermark-triggered log compaction. After the
// build, each filter is differential-checked: Compact() then per-shard
// byte-comparison against a from-scratch build of the surviving (dataset)
// rows — the run aborts if any shard diverges, and the RF/FPR numbers
// printed afterwards are therefore exactly the numbers of a clean build.
// --multi-join switches to chain-plan execution: instead of the star
// evaluation, each query with a production_year range runs as a pipelined
// semijoin chain — a RangeCcf over raw years (dyadic decomposition,
// --max-level levels) anchors title, each fact table's probe OUTPUT builds
// the next hop's filter, and the year range is compiled once per batch and
// probed through the batched fast path. Every chain is cross-checked:
// batched probes must match the scalar probe loop bit-for-bit, and
// per-step counts must never dip below the exact-semijoin floor (the
// no-false-negative contract). Combine with --live-writes to build the
// range filter through the sharded serving path, and --scale to grow the
// data (the chain mode defaults to 10-100x the reproduction size).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "join/ccf_builder.h"
#include "join/evaluator.h"
#include "join/multi_join.h"

namespace {

struct Options {
  double scale = 1.0 / 128;
  ccf::CcfVariant variant = ccf::CcfVariant::kChained;
  int attr_bits = 8;
  int key_bits = 12;
  int bloom_bits = 16;
  uint64_t seed = 7;
  bool per_instance = false;
  bool batch_build = false;
  bool live_writes = false;
  bool live_crud = false;
  int shards = 8;
  uint64_t write_batch = 8192;
  uint64_t churn = 1024;
  bool multi_join = false;
  int max_level = 10;
  bool scale_set = false;
};

void PrintUsageAndExit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scale N] [--variant bloom|mixed|chained]\n"
               "          [--attr-bits B] [--key-bits B] [--bloom-bits B]\n"
               "          [--seed S] [--per-instance]\n"
               "          [--build scalar|batch]\n"
               "          [--live-writes] [--shards N] [--write-batch N]\n"
               "          [--live-crud] [--churn N]\n"
               "          [--multi-join] [--max-level L]\n",
               argv0);
  std::exit(2);
}

ccf::Result<Options> Parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> ccf::Result<const char*> {
      if (i + 1 >= argc) {
        return ccf::Status::Invalid("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      double denom = std::atof(v);
      if (denom < 1) return ccf::Status::Invalid("--scale must be >= 1");
      opts.scale = 1.0 / denom;
      opts.scale_set = true;
    } else if (arg == "--variant") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      if (std::strcmp(v, "bloom") == 0) {
        opts.variant = ccf::CcfVariant::kBloom;
      } else if (std::strcmp(v, "mixed") == 0) {
        opts.variant = ccf::CcfVariant::kMixed;
      } else if (std::strcmp(v, "chained") == 0) {
        opts.variant = ccf::CcfVariant::kChained;
      } else {
        return ccf::Status::Invalid("unknown variant: " + std::string(v));
      }
    } else if (arg == "--attr-bits") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      opts.attr_bits = std::atoi(v);
    } else if (arg == "--key-bits") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      opts.key_bits = std::atoi(v);
    } else if (arg == "--bloom-bits") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      opts.bloom_bits = std::atoi(v);
    } else if (arg == "--seed") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      opts.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--per-instance") {
      opts.per_instance = true;
    } else if (arg == "--multi-join") {
      opts.multi_join = true;
    } else if (arg == "--max-level") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      opts.max_level = std::atoi(v);
      if (opts.max_level < 0 || opts.max_level > 57) {
        return ccf::Status::Invalid("--max-level must be in [0, 57]");
      }
    } else if (arg == "--live-writes") {
      opts.live_writes = true;
    } else if (arg == "--live-crud") {
      opts.live_writes = true;
      opts.live_crud = true;
    } else if (arg == "--churn") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      long long n = std::atoll(v);
      if (n < 1) return ccf::Status::Invalid("--churn must be >= 1");
      opts.churn = static_cast<uint64_t>(n);
    } else if (arg == "--shards") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      opts.shards = std::atoi(v);
      if (opts.shards < 2) {
        return ccf::Status::Invalid("--shards must be >= 2");
      }
    } else if (arg == "--write-batch") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      long long n = std::atoll(v);
      if (n < 1) return ccf::Status::Invalid("--write-batch must be >= 1");
      opts.write_batch = static_cast<uint64_t>(n);
    } else if (arg == "--build") {
      CCF_ASSIGN_OR_RETURN(const char* v, next());
      if (std::strcmp(v, "batch") == 0) {
        opts.batch_build = true;
      } else if (std::strcmp(v, "scalar") == 0) {
        opts.batch_build = false;
      } else {
        return ccf::Status::Invalid("unknown build mode: " + std::string(v));
      }
    } else {
      return ccf::Status::Invalid("unknown flag: " + arg);
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccf;
  auto opts_or = Parse(argc, argv);
  if (!opts_or.ok()) {
    std::fprintf(stderr, "%s\n", opts_or.status().ToString().c_str());
    PrintUsageAndExit(argv[0]);
  }
  Options opts = std::move(opts_or).ValueOrDie();
  if (opts.multi_join && !opts.scale_set) {
    opts.scale = 1.0 / 8;  // 16x the reproduction default of 1/128
  }

  std::printf("generating dataset (scale 1/%.0f, seed %llu)...\n",
              1.0 / opts.scale, static_cast<unsigned long long>(opts.seed));
  ImdbDataset dataset = GenerateImdb(opts.scale, opts.seed).ValueOrDie();
  WorkloadConfig wc;
  wc.seed = opts.seed * 31 + 17;
  std::vector<JoinQuery> queries =
      GenerateWorkload(dataset, wc).ValueOrDie();

  if (opts.multi_join) {
    MultiJoinOptions mj;
    mj.variant = opts.variant;
    mj.key_fp_bits = opts.key_bits;
    mj.attr_fp_bits = std::max(opts.attr_bits, 12);  // dyadic labels hash
    mj.max_level = opts.max_level;
    mj.salt = opts.seed;
    mj.sharded_build = opts.live_writes;
    mj.num_shards = opts.shards;
    std::printf(
        "multi-join chains: dyadic max_level=%d (eta=%d), %s build\n\n",
        mj.max_level, mj.max_level + 1,
        mj.sharded_build ? "sharded live-write" : "bulk");
    std::printf("%5s %-18s %6s %12s %12s %12s %12s\n", "query", "last_table",
                "steps", "rows_local", "rows_chain", "rf_chain", "rf_exact");
    int chains = 0;
    uint64_t total_bits = 0;
    for (const JoinQuery& query : queries) {
      bool has_range = false;
      for (const auto& p : query.predicates) has_range |= p.is_range;
      if (!has_range || query.tables.size() < 3) continue;

      mj.mode = ChainProbeMode::kBatched;
      auto batched_or = RunMultiJoinChain(dataset, query, mj);
      mj.mode = ChainProbeMode::kScalar;
      auto scalar_or = RunMultiJoinChain(dataset, query, mj);
      auto exact_or = ExactChainReference(dataset, query);
      for (const auto* r : {&batched_or.status(), &scalar_or.status(),
                            &exact_or.status()}) {
        if (!r->ok()) {
          std::fprintf(stderr, "query %d: chain failed: %s\n", query.id,
                       std::string(r->message()).c_str());
          return 1;
        }
      }
      auto batched = std::move(batched_or).ValueOrDie();
      auto scalar = std::move(scalar_or).ValueOrDie();
      auto exact = std::move(exact_or).ValueOrDie();

      // Bit-identity: the batched probe pipeline must agree with the
      // scalar loop per step; the chain must never dip below the exact
      // floor (no false negatives).
      for (size_t s = 0; s < batched.steps.size(); ++s) {
        if (batched.steps[s].rows_after_probe !=
            scalar.steps[s].rows_after_probe) {
          std::fprintf(stderr,
                       "query %d step %zu: batched %llu != scalar %llu\n",
                       query.id, s,
                       static_cast<unsigned long long>(
                           batched.steps[s].rows_after_probe),
                       static_cast<unsigned long long>(
                           scalar.steps[s].rows_after_probe));
          return 1;
        }
        if (batched.steps[s].rows_after_probe <
            exact.steps[s].rows_after_probe) {
          std::fprintf(stderr, "query %d step %zu: false negatives\n",
                       query.id, s);
          return 1;
        }
      }
      const MultiJoinStep& last = batched.steps.back();
      const MultiJoinStep& last_exact = exact.steps.back();
      std::printf("%5d %-18s %6zu %12llu %12llu %12.4f %12.4f\n", query.id,
                  last.table.c_str(), batched.steps.size() - 1,
                  static_cast<unsigned long long>(last.rows_after_local),
                  static_cast<unsigned long long>(last.rows_after_probe),
                  last.rf(), last_exact.rf());
      total_bits += batched.total_filter_bits;
      ++chains;
    }
    std::printf(
        "\n%d chains ran; batched == scalar bit-for-bit on every step, no "
        "step below the exact floor\n",
        chains);
    std::printf("total chain filter bits: %.2f MB\n",
                static_cast<double>(total_bits) / 8 / 1024 / 1024);
    return 0;
  }
  auto evaluator = WorkloadEvaluator::Make(&dataset, &queries).ValueOrDie();
  std::printf("%zu queries, %zu (query, table) instances\n", queries.size(),
              evaluator.exact().size());

  CcfBuildParams params;
  params.variant = opts.variant;
  params.attr_fp_bits = opts.attr_bits;
  params.key_fp_bits = opts.key_bits;
  params.bloom_bits = opts.bloom_bits;
  params.batch_build = opts.batch_build;
  if (opts.live_writes) {
    params.num_shards = opts.shards;
    params.live_write_batch = opts.write_batch;
    params.resize_watermark = 0.85;
    std::printf(
        "live-write build: %d shards, %llu-row commits, watermark 0.85\n",
        opts.shards, static_cast<unsigned long long>(opts.write_batch));
  }
  if (opts.live_crud) {
    params.live_churn_rows = opts.churn;
    params.live_differential_check = true;
    std::printf(
        "live-crud churn: %llu transient rows per commit "
        "(insert->update->erase), differential check on\n",
        static_cast<unsigned long long>(opts.churn));
  }
  std::printf("building %s CCFs (|α|=%d, |κ|=%d)...\n",
              std::string(CcfVariantName(opts.variant)).c_str(),
              opts.attr_bits, opts.key_bits);
  auto filters_or = BuildAllCcfs(dataset, params);
  if (!filters_or.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 filters_or.status().ToString().c_str());
    return 1;
  }
  auto filters = std::move(filters_or).ValueOrDie();
  if (opts.live_crud) {
    // BuildAllCcfs would have failed with Status::Internal on any shard
    // diverging from its from-scratch build — reaching here IS the pass.
    std::printf("live-crud differential: all tables byte-identical to "
                "from-scratch builds of the surviving rows\n");
  }

  std::printf("\n%-16s %12s %10s %10s %9s %11s\n", "table", "entries", "load",
              "size_KB", "rebuilds", "compactions");
  for (const BuiltCcf& f : filters) {
    std::printf("%-16s %12llu %10.3f %10.1f %9d %11d\n",
                f.source->spec.name.c_str(),
                static_cast<unsigned long long>(f.filter->num_entries()),
                f.filter->LoadFactor(),
                static_cast<double>(f.filter->SizeInBits()) / 8 / 1024,
                f.rebuilds, f.compactions);
  }

  CcfFilterSet set(&filters);
  auto results = evaluator.Evaluate(set).ValueOrDie();
  AggregateResult agg =
      WorkloadEvaluator::Aggregate(results, set.TotalSizeInBits());

  if (opts.per_instance) {
    std::printf("\n%5s %-18s %6s %12s %12s %12s\n", "query", "base", "joins",
                "rf_exact", "rf_binned", "rf_ccf");
    for (const InstanceResult& r : results) {
      std::printf("%5d %-18s %6d %12.4f %12.4f %12.4f\n", r.exact.query_id,
                  r.exact.base_table.c_str(), r.exact.num_joins,
                  r.exact.RfSemijoin(), r.exact.RfSemijoinBinned(),
                  r.RfFiltered());
    }
  }

  std::printf("\naggregate over all instances:\n");
  std::printf("  total filter size: %.2f MB\n",
              static_cast<double>(agg.total_size_bits) / 8 / 1024 / 1024);
  std::printf(
      "  reduction factor:  %.4f (optimal %.4f, optimal-after-binning "
      "%.4f)\n",
      agg.rf_filtered, agg.rf_semijoin, agg.rf_semijoin_binned);
  std::printf("  FPR vs binned:     %.4f\n", agg.fpr_vs_binned);
  std::printf("  FPR vs exact:      %.4f (includes binning error)\n",
              agg.fpr_vs_exact);
  return 0;
}
