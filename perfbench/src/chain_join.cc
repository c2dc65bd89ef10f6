// chain-join: the JOB-light multi-join chains (range queries over >= 3
// tables) through RunMultiJoinChain with the bulk RangeCcf anchor build —
// the paper's join-pushdown application. The untraced run times whole
// chains; the traced run re-issues every chain step through the same public
// calls with a span around each, and must reproduce RunMultiJoinChain's
// per-step counts exactly.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ccf/range_ccf.h"
#include "data/imdb_synth.h"
#include "data/workload.h"
#include "join/multi_join.h"
#include "join/semijoin.h"
#include "predicate/range_binning.h"
#include "stats.h"
#include "sysinfo.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ccf::CcfConfig;
using ccf::ImdbDataset;
using ccf::JoinQuery;
using ccf::MultiJoinOptions;
using ccf::MultiJoinResult;
using ccf::QueryPredicate;
using ccf::TableData;

struct ChainSetup {
  ImdbDataset dataset;
  std::vector<JoinQuery> chains;
  std::vector<MultiJoinResult> exact;
};

// ccf_joblight --multi-join defaults.
MultiJoinOptions ChainOptions(uint64_t seed) {
  MultiJoinOptions o;
  o.variant = ccf::CcfVariant::kChained;
  o.key_fp_bits = 12;
  o.attr_fp_bits = 12;
  o.max_level = 10;
  o.salt = seed;
  o.mode = ccf::ChainProbeMode::kBatched;
  return o;
}

bool MakeSetup(double scale, uint64_t seed, ChainSetup* s, Report* r) {
  auto ds = ccf::GenerateImdb(scale, seed);
  if (!ds.ok()) {
    r->Fail("dataset: " + ds.status().message());
    return false;
  }
  s->dataset = std::move(ds).ValueOrDie();
  // The query set is fixed, as JOB-light's is (ccf_joblight's default
  // workload seed); the seed varies the data and the filters' hash salt.
  ccf::WorkloadConfig wc;
  wc.seed = 7 * 31 + 17;
  auto queries = ccf::GenerateWorkload(s->dataset, wc);
  if (!queries.ok()) {
    r->Fail("workload: " + queries.status().message());
    return false;
  }
  s->chains.clear();
  s->exact.clear();
  for (JoinQuery& q : queries.ValueOrDie()) {
    bool has_range = false;
    for (const auto& p : q.predicates) has_range |= p.is_range;
    if (!has_range || q.tables.size() < 3) continue;
    auto exact = ccf::ExactChainReference(s->dataset, q);
    if (!exact.ok()) {
      r->Fail("exact chain: " + exact.status().message());
      return false;
    }
    s->exact.push_back(std::move(exact).ValueOrDie());
    s->chains.push_back(std::move(q));
  }
  return !s->chains.empty();
}

// --- The traced replica of RunMultiJoinChain ---------------------------------
// Mirrors join/multi_join.cc step for step (same geometry, same calls, same
// order) so its counts must equal the library's.

CcfConfig ChainConfig(uint64_t entries, int num_attrs,
                      const MultiJoinOptions& o) {
  CcfConfig c;
  c.slots_per_bucket = 4;
  c.key_fp_bits = o.key_fp_bits;
  c.attr_fp_bits = o.attr_fp_bits;
  c.num_attrs = num_attrs;
  c.salt = o.salt;
  uint64_t buckets = 64;
  while (buckets * 4 < entries * 2) buckets <<= 1;
  c.num_buckets = buckets;
  return c;
}

/// Counts the traced replica gathers beside its spans.
struct ReplicaCounts {
  uint64_t range_entries = 0;
  double range_load = 0;
  uint64_t range_keys = 0;
  uint64_t step_keys = 0;
  uint64_t step_rows_built = 0;
  uint64_t distinct = 0;
  uint64_t rows_local = 0;
  size_t cover = 0;
  uint64_t capacity_errors = 0;
};

ccf::Result<MultiJoinResult> TracedChain(const ImdbDataset& dataset,
                                         const JoinQuery& query,
                                         const MultiJoinOptions& o,
                                         SpanLog& log, uint64_t req,
                                         ReplicaCounts* counts) {
  Scoped root(log, "bench.chain", req);
  const TableData& title = dataset.title();

  // No year predicate means the full domain, as in the library.
  uint64_t lo = static_cast<uint64_t>(ccf::kYearLo);
  uint64_t hi = static_cast<uint64_t>(ccf::kYearHi);
  std::vector<const QueryPredicate*> title_eq;
  for (const QueryPredicate* p : query.PredicatesOn("title")) {
    if (p->is_range) {
      lo = p->lo < 0 ? 0 : static_cast<uint64_t>(p->lo);
      hi = p->hi < 0 ? 0 : static_cast<uint64_t>(p->hi);
    } else {
      title_eq.push_back(p);
    }
  }

  // data: the title rows as the anchor build consumes them.
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;
  int range_attr = -1;
  const size_t num_attrs = title.spec.predicate_columns.size();
  {
    Scoped s(log, "data.title_rows", req);
    CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                         title.table.column(title.spec.key_column));
    std::vector<const std::vector<uint64_t>*> cols;
    for (size_t i = 0; i < num_attrs; ++i) {
      const std::string& name = title.spec.predicate_columns[i];
      CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* c,
                           title.table.column(name));
      cols.push_back(c);
      if (name == "production_year") range_attr = static_cast<int>(i);
    }
    keys.assign(key_col->begin(), key_col->end());
    flat_attrs.reserve(keys.size() * num_attrs);
    for (size_t i = 0; i < keys.size(); ++i) {
      for (const auto* c : cols) flat_attrs.push_back((*c)[i]);
    }
  }
  if (range_attr < 0) return ccf::Status::Invalid("no production_year");

  std::unique_ptr<ccf::RangeCcf> anchor;
  {
    Scoped s(log, "ccf.range.build", req);
    const uint64_t eta = static_cast<uint64_t>(o.max_level) + 1;
    CcfConfig config = ChainConfig(keys.size() * eta,
                                   static_cast<int>(num_attrs), o);
    CCF_ASSIGN_OR_RETURN(anchor, ccf::RangeCcf::Make(o.variant, config,
                                                     range_attr, o.max_level));
    ccf::Status st = anchor->InsertBatch(keys, flat_attrs);
    if (!st.ok()) {
      ++counts->capacity_errors;
      return st;
    }
  }
  counts->range_entries += anchor->num_entries();
  counts->range_load = anchor->LoadFactor();

  MultiJoinResult result;
  result.total_filter_bits += anchor->SizeInBits();
  {
    ccf::MultiJoinStep step;
    step.table = "title";
    step.rows_scanned = title.table.num_rows();
    step.rows_after_local = step.rows_scanned;
    step.rows_after_probe = step.rows_scanned;
    result.steps.push_back(std::move(step));
  }
  ccf::Predicate other;
  {
    Scoped s(log, "predicate.title_terms", req);
    for (const QueryPredicate* p : title_eq) {
      int attr = -1;
      for (size_t i = 0; i < num_attrs; ++i) {
        if (title.spec.predicate_columns[i] == p->column) {
          attr = static_cast<int>(i);
        }
      }
      if (attr < 0) return ccf::Status::Invalid("unknown title column");
      other.AndEquals(attr, p->value);
    }
  }

  ccf::RangeBinner binner =
      ccf::RangeBinner::Make(ccf::kYearLo, ccf::kYearHi, ccf::kYearBins)
          .ValueOrDie();
  std::vector<std::string> facts;
  for (const std::string& name : query.tables) {
    if (name != "title") facts.push_back(name);
  }
  std::unique_ptr<ccf::ConditionalCuckooFilter> prev;
  bool first = true;
  for (const std::string& name : facts) {
    CCF_ASSIGN_OR_RETURN(const TableData* td, dataset.FindTable(name));
    ccf::MultiJoinStep step;
    step.table = name;
    step.rows_scanned = td->table.num_rows();

    std::vector<const QueryPredicate*> local_eq;
    for (const QueryPredicate* p : query.PredicatesOn(name)) {
      if (!p->is_range) local_eq.push_back(p);
    }
    std::vector<char> mask;
    ccf::DistinctKeys distinct;
    {
      Scoped s(log, "join.scan", req);
      CCF_ASSIGN_OR_RETURN(mask, ccf::MatchMask(*td, local_eq,
                                                ccf::YearMode::kExact,
                                                binner));
      for (char m : mask) step.rows_after_local += m != 0;
      CCF_ASSIGN_OR_RETURN(distinct, ccf::CollectDistinctKeys(*td, mask));
    }
    counts->distinct += distinct.keys.size();
    counts->rows_local += step.rows_after_local;
    std::unique_ptr<bool[]> hits(new bool[distinct.keys.size()]());
    std::span<bool> hit_span(hits.get(), distinct.keys.size());
    if (first) {
      ccf::CompiledRangePredicate compiled;
      {
        Scoped s(log, "predicate.compile", req);
        CCF_ASSIGN_OR_RETURN(compiled, anchor->CompileRange(lo, hi, other));
      }
      counts->cover = compiled.cover_size;
      Scoped s(log, "ccf.range.probe", req);
      CCF_RETURN_NOT_OK(
          anchor->ContainsInRangeBatch(distinct.keys, compiled, hit_span));
      counts->range_keys += distinct.keys.size();
    } else {
      Scoped s(log, "ccf.step.probe", req);
      prev->ContainsKeyBatch(distinct.keys, hit_span);
      counts->step_keys += distinct.keys.size();
    }

    std::vector<uint64_t> next_keys;
    std::vector<uint64_t> next_attrs;
    {
      Scoped s(log, "join.gather", req);
      CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                           td->table.column(td->spec.key_column));
      const std::vector<uint64_t>* attr_col = nullptr;
      if (!td->spec.predicate_columns.empty()) {
        CCF_ASSIGN_OR_RETURN(attr_col,
                             td->table.column(td->spec.predicate_columns[0]));
      }
      for (size_t i = 0; i < key_col->size(); ++i) {
        if (!mask[i]) continue;
        auto it = distinct.index.find((*key_col)[i]);
        if (it == distinct.index.end() || !hits[it->second]) continue;
        ++step.rows_after_probe;
        next_keys.push_back((*key_col)[i]);
        next_attrs.push_back(attr_col == nullptr ? 0 : (*attr_col)[i]);
      }
    }
    result.final_rows = step.rows_after_probe;
    result.steps.push_back(std::move(step));
    first = false;

    if (name != facts.back()) {
      Scoped s(log, "ccf.step.build", req);
      CcfConfig config =
          ChainConfig(std::max<uint64_t>(next_keys.size(), 64), 1, o);
      CCF_ASSIGN_OR_RETURN(prev,
                           ccf::ConditionalCuckooFilter::Make(o.variant,
                                                              config));
      if (!next_keys.empty()) {
        ccf::Status st = prev->InsertBatch(next_keys, next_attrs);
        if (!st.ok()) {
          ++counts->capacity_errors;
          return st;
        }
      }
      counts->step_rows_built += next_keys.size();
      result.total_filter_bits += prev->SizeInBits();
    }
  }
  return result;
}

bool SameCounts(const MultiJoinResult& a, const MultiJoinResult& b) {
  if (a.steps.size() != b.steps.size() || a.final_rows != b.final_rows ||
      a.total_filter_bits != b.total_filter_bits) {
    return false;
  }
  for (size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].rows_after_local != b.steps[i].rows_after_local ||
        a.steps[i].rows_after_probe != b.steps[i].rows_after_probe) {
      return false;
    }
  }
  return true;
}

// Rows each chain inserts into its filters: the anchor's title rows plus
// every survivor set built into a step filter.
uint64_t RowsInserted(const MultiJoinResult& r) {
  uint64_t rows = r.steps[0].rows_after_probe;
  for (size_t s = 1; s + 1 < r.steps.size(); ++s) {
    rows += r.steps[s].rows_after_probe;
  }
  return rows;
}

}  // namespace

Report RunChainJoin(const RunConfig& cfg) {
  Report r;
  r.threads_planned = 1;
  const double scale = cfg.smoke ? 1.0 / 1024 : 1.0 / 128;
  const MultiJoinOptions opts = ChainOptions(cfg.seed);

  ChainSetup setup;
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    setup = ChainSetup();
    const int64_t t0 = NowNs();
    if (!MakeSetup(scale, cfg.seed, &setup, &r)) {
      r.Fail("set-up produced no chains");
      return r;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const size_t n = setup.chains.size();
  r.e2e["setup_s"] = Median(setup_s);
  r.e2e["rss_mb"] = ResidentMb();
  std::printf("chain-join: scale 1/%.0f, %zu chains (range, >= 3 tables)\n",
              1.0 / scale, n);

  // Chains run in a fixed cycle. The first run of each chain is its
  // reference: later runs, and the traced replica, must repeat its counts.
  std::vector<MultiJoinResult> reference(n);
  std::vector<bool> have_ref(n, false);
  uint64_t rows_scanned = 0;
  // Runs chain c through RunMultiJoinChain and checks it; returns its
  // latency in ms, or a negative value when it failed.
  auto library_chain = [&](size_t c) -> double {
    ++r.attempted;
    const int64_t t0 = NowNs();
    auto res = ccf::RunMultiJoinChain(setup.dataset, setup.chains[c], opts);
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (!res.ok()) {
      r.Fail("chain " + std::to_string(c) + ": " + res.status().message());
      return -1;
    }
    const MultiJoinResult& got = res.ValueOrDie();
    const MultiJoinResult& floor = setup.exact[c];
    bool ok = got.steps.size() == floor.steps.size();
    for (size_t s = 0; ok && s < got.steps.size(); ++s) {
      ok = got.steps[s].rows_after_probe >= floor.steps[s].rows_after_probe;
    }
    if (!ok) r.Fail("chain " + std::to_string(c) + " below exact floor");
    if (!have_ref[c]) {
      reference[c] = got;
      have_ref[c] = true;
    } else if (!SameCounts(got, reference[c])) {
      r.Fail("chain " + std::to_string(c) + " counts differ across runs");
    }
    for (const auto& st : got.steps) rows_scanned += st.rows_scanned;
    return ms;
  };

  // At least 100 chains, so the tail rule reaches p90.
  constexpr size_t kMinChains = 100;
  const int64_t deadline = NowNs() + static_cast<int64_t>(cfg.seconds * 1e9);
  if (!cfg.trace) {
    std::vector<double> chain_ms;
    double total_s = 0;
    for (size_t i = 0; i < kMinChains || NowNs() < deadline; ++i) {
      const double ms = library_chain(i % n);
      if (ms >= 0) {
        chain_ms.push_back(ms);
        total_s += ms * 1e-3;
      }
      if (i % n == 0) r.SeeThreads(ThreadCount());
    }
    double sum_final = 0, sum_exact = 0, bits = 0, rows = 0;
    for (size_t c = 0; c < n; ++c) {
      if (!have_ref[c]) continue;
      sum_final += static_cast<double>(reference[c].final_rows);
      sum_exact += static_cast<double>(setup.exact[c].final_rows);
      bits += static_cast<double>(reference[c].total_filter_bits);
      rows += static_cast<double>(RowsInserted(reference[c]));
    }
    const Tail tail = TailOf(chain_ms);
    r.e2e["latency_trimmed_mean_us"] =
        TrimmedMean(chain_ms, kLatencyTrim) * 1e3;
    r.e2e["latency_tail_us"] = tail.value * 1e3;
    r.e2e["throughput_per_s"] =
        static_cast<double>(rows_scanned) / std::max(total_s, 1e-9);
    r.e2e["filter_bits_per_row"] = bits / std::max(rows, 1.0);
    r.named = {
        {"chain_p50_ms", Median(chain_ms), "ms"},
        {"chain_trimmed_mean_ms", TrimmedMean(chain_ms, kLatencyTrim), "ms"},
        {"chain_p" + std::to_string(static_cast<int>(tail.percentile)) +
             "_ms",
         tail.value, "ms"},
        {"chains_timed", static_cast<double>(chain_ms.size()), "count"},
        {"chain_rows_scanned_per_s", r.e2e["throughput_per_s"], "1/s"},
        {"chain_fp_rows_frac", sum_final / std::max(sum_exact, 1.0) - 1.0,
         "frac"},
        {"filter_bits_per_row", r.e2e["filter_bits_per_row"], "bits"},
    };
    return r;
  }

  // Traced run: each chain runs untraced through RunMultiJoinChain, then
  // through the traced replica, which must repeat its counts. The gap
  // between the two timings is the tracing overhead.
  SpanLog log(true);
  ReplicaCounts counts;
  std::vector<double> overhead;
  std::vector<uint64_t> fp_rows_step(5, 0);
  double sum_final = 0, sum_exact = 0;
  for (size_t i = 0; i < n || NowNs() < deadline; ++i) {
    const size_t c = i % n;
    const double lib_ms = library_chain(c);
    ++r.attempted;
    const int64_t t0 = NowNs();
    auto res = TracedChain(setup.dataset, setup.chains[c], opts, log, i + 1,
                           &counts);
    const double traced_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (!res.ok()) {
      r.Fail("replica chain " + std::to_string(c) + ": " +
             res.status().message());
      continue;
    }
    if (have_ref[c] && !SameCounts(res.ValueOrDie(), reference[c])) {
      r.Fail("replica chain " + std::to_string(c) +
             " differs from RunMultiJoinChain");
    }
    if (lib_ms > 0) overhead.push_back(traced_ms / lib_ms - 1.0);
    if (i < n) {
      const auto& steps = res.ValueOrDie().steps;
      for (size_t s = 1; s < steps.size() && s < fp_rows_step.size(); ++s) {
        const uint64_t floor = setup.exact[c].steps[s].rows_after_probe;
        fp_rows_step[s] += std::max(steps[s].rows_after_probe, floor) - floor;
      }
      sum_final += static_cast<double>(res.ValueOrDie().final_rows);
      sum_exact += static_cast<double>(setup.exact[c].final_rows);
    }
  }
  r.SeeThreads(ThreadCount());

  // Per-chain totals of each span name, then medians over chains.
  std::map<std::string, std::vector<double>> per_chain;  // name -> ms
  {
    std::map<std::string, std::map<uint64_t, double>> acc;
    for (const Span& s : log.spans()) {
      acc[s.name][s.request] += static_cast<double>(s.end_ns - s.start_ns) *
                                1e-6;
    }
    for (auto& [name, by_req] : acc) {
      for (auto& [req, ms] : by_req) per_chain[name].push_back(ms);
    }
  }
  std::map<std::string, int64_t> total = NameTotalNs({&log});
  auto ns_of = [&](const char* name) {
    return static_cast<double>(total[name]);
  };
  r.layer["ccf.range.build_ms"] = Median(per_chain["ccf.range.build"]);
  r.layer["ccf.range.build_entries_per_s"] =
      static_cast<double>(counts.range_entries) /
      std::max(ns_of("ccf.range.build") * 1e-9, 1e-12);
  r.layer["ccf.range.load_factor"] = counts.range_load;
  r.layer["join.scan_ms"] = Median(per_chain["join.scan"]);
  r.layer["join.distinct_per_row"] =
      static_cast<double>(counts.distinct) /
      std::max<double>(1.0, static_cast<double>(counts.rows_local));
  r.layer["join.gather_ms"] = Median(per_chain["join.gather"]);
  r.layer["predicate.compile_us"] =
      Median(per_chain["predicate.compile"]) * 1e3;
  r.layer["predicate.cover_intervals"] = static_cast<double>(counts.cover);
  r.layer["ccf.range.probe_ns_per_key"] =
      ns_of("ccf.range.probe") /
      std::max<double>(1.0, static_cast<double>(counts.range_keys));
  r.layer["ccf.step.probe_ns_per_key"] =
      ns_of("ccf.step.probe") /
      std::max<double>(1.0, static_cast<double>(counts.step_keys));
  r.layer["ccf.step.build_rows_per_s"] =
      static_cast<double>(counts.step_rows_built) /
      std::max(ns_of("ccf.step.build") * 1e-9, 1e-12);
  r.layer["ccf.capacity_errors"] = static_cast<double>(counts.capacity_errors);
  for (size_t s = 1; s < fp_rows_step.size(); ++s) {
    r.layer["join.fp_rows_step" + std::to_string(s)] =
        static_cast<double>(fp_rows_step[s]);
  }
  r.layer["join.fp_rows_frac"] = sum_final / std::max(sum_exact, 1.0) - 1.0;
  r.layer["trace.overhead_frac"] = Median(overhead);
  ReportSpans(cfg, {&log}, &r);
  return r;
}

}  // namespace perfbench
