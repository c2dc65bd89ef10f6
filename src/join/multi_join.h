// Multi-join chain plans: one table's CCF probe output feeds the next
// table's filter build across 2+ join steps, with the range predicate
// served by a RangeCcf on the anchor table — the pipelined counterpart of
// the star-shaped semijoin evaluation in evaluator.h.
//
// The chain starts at `title` (the anchor of every JOB-light query): a
// RangeCcf over production_year (raw years, dyadic decomposition) is built
// once; step 1 scans the first fact table, applies its local equality
// predicates, and probes the range filter with the query's year range —
// compiled ONCE per batch and resolved through the batched fast path (or
// the scalar loop, for the differential reference). The step's surviving
// rows are built into a fresh equality CCF, which step 2 probes key-only,
// and so on. Each step's reduction factor and the final surviving-row
// count come out alongside the filters' total size.
//
// Probe mode only affects HOW filters are probed (batched pipeline vs
// scalar loop) — builds are identical — so the two modes must produce
// bit-identical step counts; ExactChainReference runs the same plan on
// exact key sets, the no-false-positive lower bound.
#ifndef CCF_JOIN_MULTI_JOIN_H_
#define CCF_JOIN_MULTI_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ccf/ccf.h"
#include "data/imdb_synth.h"
#include "data/workload.h"
#include "util/result.h"

namespace ccf {

/// How chain probes resolve: the batched pipeline (cover compiled once,
/// keys prefetched) or the per-key scalar loop.
enum class ChainProbeMode { kScalar, kBatched };

struct MultiJoinOptions {
  CcfVariant variant = CcfVariant::kChained;
  int key_fp_bits = 12;
  /// Dyadic labels always hash (no small-value storage), so wide attribute
  /// fingerprints keep per-probe collision odds ≈ η·|cover| / 2^bits low.
  int attr_fp_bits = 12;
  /// Dyadic levels for the production_year range filter (η = max_level+1).
  int max_level = 10;
  ChainProbeMode mode = ChainProbeMode::kBatched;
  /// Build the range filter on the serving path: a sharded inner absorbing
  /// the rows as staged write batches (epoch-published commits) instead of
  /// the offline bulk build. Query answers keep the same guarantees.
  bool sharded_build = false;
  int num_shards = 8;
  uint64_t salt = 0;
};

/// Per-step counts of a chain run.
struct MultiJoinStep {
  std::string table;
  uint64_t rows_scanned = 0;
  /// Rows passing the step's LOCAL equality predicates.
  uint64_t rows_after_local = 0;
  /// + the probe of the previous step's filter (the semijoin reduction).
  uint64_t rows_after_probe = 0;

  double rf() const {
    return rows_after_local == 0
               ? 0.0
               : static_cast<double>(rows_after_probe) /
                     static_cast<double>(rows_after_local);
  }
};

struct MultiJoinResult {
  std::vector<MultiJoinStep> steps;
  /// Rows of the LAST table surviving the whole chain.
  uint64_t final_rows = 0;
  /// Physical bits of every filter the chain built.
  uint64_t total_filter_bits = 0;
};

/// Runs the chain plan for `query` (which must include `title` and at
/// least one other table): RangeCcf on title's production_year, then one
/// probe-and-build step per fact table in query order. The query's year
/// range rides the step-1 probe; title equality predicates ride along as
/// the compiled predicate's equality terms.
Result<MultiJoinResult> RunMultiJoinChain(const ImdbDataset& dataset,
                                          const JoinQuery& query,
                                          const MultiJoinOptions& options);

/// The same chain on EXACT key sets (scan-side semantics, no sketches):
/// the reduction-factor lower bound a filtered chain must stay above, and
/// the no-false-negative floor it must never dip below per step.
Result<MultiJoinResult> ExactChainReference(const ImdbDataset& dataset,
                                            const JoinQuery& query);

}  // namespace ccf

#endif  // CCF_JOIN_MULTI_JOIN_H_
