#include "data/workload.h"

#include <algorithm>

#include "util/random.h"

namespace ccf {

bool JoinQuery::HasTable(const std::string& name) const {
  return std::find(tables.begin(), tables.end(), name) != tables.end();
}

std::vector<const QueryPredicate*> JoinQuery::PredicatesOn(
    const std::string& table) const {
  std::vector<const QueryPredicate*> out;
  for (const QueryPredicate& p : predicates) {
    if (p.table == table) out.push_back(&p);
  }
  return out;
}

std::string JoinQuery::ToString() const {
  std::string out = "Q";
  out += std::to_string(id);
  out += " [";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) out += ", ";
    out += tables[i];
  }
  out += "]";
  for (const QueryPredicate& p : predicates) {
    out += " " + p.table + "." + p.column;
    if (p.is_range) {
      out += " BETWEEN ";
      out += std::to_string(p.lo);
      out += " AND ";
      out += std::to_string(p.hi);
    } else {
      out += "=";
      out += std::to_string(p.value);
    }
  }
  return out;
}

namespace {

// Draws a predicate constant from the actual column contents
// (frequency-weighted: sample a random row), so equality predicates have
// realistic selectivity.
Result<uint64_t> SampleColumnValue(const Table& table,
                                   const std::string& column, Rng& rng) {
  CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* col,
                       table.column(column));
  if (col->empty()) return Status::Invalid("empty column");
  return (*col)[rng.NextBelow(col->size())];
}

}  // namespace

Result<std::vector<JoinQuery>> GenerateWorkload(const ImdbDataset& dataset,
                                                const WorkloadConfig& config) {
  if (config.num_queries < 1) {
    return Status::Invalid("num_queries must be >= 1");
  }
  Rng rng(config.seed ^ 0x30b11947ull);

  // Table-count mix: for the default 70 queries this is {2:15, 3:25, 4:18,
  // 5:12} → 237 (query, table) instances, matching §10.3. Other sizes scale
  // the mix proportionally.
  std::vector<int> table_counts;
  {
    const int mix[4] = {15, 25, 18, 12};  // queries with 2,3,4,5 tables
    for (int c = 0; c < 4; ++c) {
      int n = config.num_queries == 70
                  ? mix[c]
                  : std::max(1, config.num_queries * mix[c] / 70);
      for (int i = 0; i < n && static_cast<int>(table_counts.size()) <
                                   config.num_queries;
           ++i) {
        table_counts.push_back(c + 2);
      }
    }
    while (static_cast<int>(table_counts.size()) < config.num_queries) {
      table_counts.push_back(3);
    }
    rng.Shuffle(table_counts);
  }

  std::vector<std::string> fact_names;
  for (size_t i = 1; i < dataset.tables.size(); ++i) {
    fact_names.push_back(dataset.tables[i].spec.name);
  }

  // Which queries carry the production_year range predicate.
  std::vector<int> has_year(static_cast<size_t>(config.num_queries), 0);
  for (int i = 0; i < std::min(config.num_year_range_queries,
                               config.num_queries);
       ++i) {
    has_year[static_cast<size_t>(i)] = 1;
  }
  rng.Shuffle(has_year);

  std::vector<JoinQuery> queries;
  queries.reserve(static_cast<size_t>(config.num_queries));
  for (int q = 0; q < config.num_queries; ++q) {
    JoinQuery query;
    query.id = q + 1;
    query.tables.push_back("title");

    // Pick (table_count - 1) distinct fact tables.
    std::vector<std::string> pool = fact_names;
    rng.Shuffle(pool);
    int facts = table_counts[static_cast<size_t>(q)] - 1;
    for (int i = 0; i < facts && i < static_cast<int>(pool.size()); ++i) {
      query.tables.push_back(pool[static_cast<size_t>(i)]);
    }

    // Title predicates.
    const TableData& title = dataset.title();
    if (has_year[static_cast<size_t>(q)]) {
      // JOB-light's year predicates are mostly "after Y" half-ranges.
      int64_t lo = kYearLo + 70 +
                   static_cast<int64_t>(rng.NextBelow(
                       static_cast<uint64_t>(kYearHi - kYearLo - 75)));
      int64_t hi = rng.NextBool(0.3)
                       ? std::min<int64_t>(kYearHi,
                                           lo + 1 + static_cast<int64_t>(
                                                        rng.NextBelow(15)))
                       : kYearHi;
      query.predicates.push_back(QueryPredicate{
          "title", "production_year", /*is_range=*/true, 0, lo, hi});
    }
    if (rng.NextBool(config.kind_predicate_prob)) {
      CCF_ASSIGN_OR_RETURN(uint64_t v,
                           SampleColumnValue(title.table, "kind_id", rng));
      query.predicates.push_back(
          QueryPredicate{"title", "kind_id", false, v, 0, 0});
    }

    // Fact-table predicates.
    for (size_t t = 1; t < query.tables.size(); ++t) {
      if (!rng.NextBool(config.fact_predicate_prob)) continue;
      CCF_ASSIGN_OR_RETURN(const TableData* td,
                           dataset.FindTable(query.tables[t]));
      // Tables with several predicate columns choose one at random
      // (movie_companies: company_id vs company_type_id).
      const auto& cols = td->spec.predicate_columns;
      const std::string& col = cols[rng.NextBelow(cols.size())];
      CCF_ASSIGN_OR_RETURN(uint64_t v,
                           SampleColumnValue(td->table, col, rng));
      query.predicates.push_back(
          QueryPredicate{td->spec.name, col, false, v, 0, 0});
    }

    // Every query must filter something (JOB-light queries all carry
    // predicates).
    if (query.predicates.empty()) {
      CCF_ASSIGN_OR_RETURN(uint64_t v,
                           SampleColumnValue(title.table, "kind_id", rng));
      query.predicates.push_back(
          QueryPredicate{"title", "kind_id", false, v, 0, 0});
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

}  // namespace ccf
