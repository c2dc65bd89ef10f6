// Full-CRUD live writes: BufferErase/BufferUpdate tombstones racing
// continuous batched readers, commit-time slot reclamation, and watermark
// row-log compaction, across all 4 variants. The concurrency invariant is
// one-sided, matching the filter contract: a row that is committed-live for
// the entire duration of a probe must NEVER answer false (zero false
// negatives), while erased rows may leave transient one-sided residue
// (extra false positives) until a compaction or resize clears it. Runs
// under the CI ThreadSanitizer leg (with live_write_stress_test,
// resize_stress_test, concurrency_test, and epoch_test).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccf/sharded_ccf.h"
#include "util/random.h"

namespace ccf {
namespace {

CcfConfig CrudConfig(uint64_t salt) {
  CcfConfig config;
  config.num_buckets = 512;
  config.slots_per_bucket = 6;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = salt;
  return config;
}

struct Rows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;  // row-major, 2 per key
};

Rows MakeRows(uint64_t first_key, int n, uint64_t seed) {
  Rows rows;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    rows.keys.push_back(first_key + static_cast<uint64_t>(i));
    rows.flat_attrs.push_back(rng.NextBelow(200));
    rows.flat_attrs.push_back(rng.NextBelow(50));
  }
  return rows;
}

// Churn rows live far above every core key range; attrs are a deterministic
// function of (row, version) so updates and erases always present the exact
// current attribute vector.
constexpr uint64_t kChurnBase = 1u << 20;

std::vector<uint64_t> ChurnAttrs(uint64_t c, uint64_t version) {
  return {(c * 131 + version * 17) % 200, (c * 131 + version * 17) % 50};
}

class LiveCrudStressTest : public ::testing::TestWithParam<CcfVariant> {};

// Readers hammer the batched paths while a writer runs the full row
// lifecycle — insert, update one round later, erase the round after —
// with a commit per round, watermark resizes AND watermark compactions
// enabled. Core rows (never touched after the initial commit) must answer
// true on every probe; a churn key's probe only counts as a false negative
// if the writer provably had not yet begun staging the round that erases
// it, re-checked AFTER the probe completes.
TEST_P(LiveCrudStressTest, ReadersNeverLoseLiveRowsAcrossCrudCommits) {
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  opts.resize_watermark = 0.8;
  opts.compact_watermark = 0.3;
  auto sharded =
      ShardedCcf::Make(GetParam(), CrudConfig(19), opts).ValueOrDie();

  Rows core = MakeRows(0, 1200, 5);
  ASSERT_TRUE(sharded->BufferWriteBatch(core.keys, core.flat_attrs).ok());
  ASSERT_TRUE(sharded->CommitWrites().ok());

  // Round r stages: erase of round r-2's keys (at attr version 1), update
  // of round r-1's keys (version 0 -> 1), insert of round r's keys
  // (version 0) — then one commit. A key born in round k is therefore
  // erase-staged no earlier than the staging of round k+2.
  constexpr int kRounds = 12;
  constexpr uint64_t kChurnPerRound = 200;
  auto churn_key = [](int round, uint64_t i) {
    return kChurnBase + static_cast<uint64_t>(round) * kChurnPerRound + i;
  };
  std::atomic<int> staging_round{-1};    // set BEFORE round r stages anything
  std::atomic<int> committed_round{-1};  // set AFTER round r's commit returns
  std::atomic<bool> stop{false};
  std::atomic<int> false_negatives{0};
  std::atomic<int> failed_batches{0};
  std::atomic<long> read_batches_done{0};

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::vector<uint64_t> keys;
      std::vector<Predicate> preds;
      std::unique_ptr<bool[]> out(new bool[core.keys.size()]);
      while (!stop.load(std::memory_order_acquire)) {
        // Core rows: live forever, so every read path must say true.
        keys.assign(core.keys.begin(), core.keys.end());
        preds.clear();
        for (size_t i = 0; i < core.keys.size(); ++i) {
          preds.push_back(Predicate::Equals(0, core.flat_attrs[2 * i])
                              .AndEquals(1, core.flat_attrs[2 * i + 1]));
        }
        std::span<bool> out_span(out.get(), keys.size());
        if (!sharded->LookupBatch(keys, preds, out_span).ok()) {
          failed_batches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < keys.size(); ++i) {
          if (!out[i]) false_negatives.fetch_add(1);
        }
        // Churn keys: probe the freshest committed rounds key-only (updates
        // change the attrs but never the key). A false answer is a false
        // negative only if, re-reading AFTER the probe, the erasing round
        // (k+2) provably had not started staging — the key was
        // committed-live for the whole probe.
        int rc = committed_round.load(std::memory_order_acquire);
        for (int k = std::max(0, rc - 1); k <= rc; ++k) {
          for (uint64_t i = 0; i < kChurnPerRound; i += 17) {
            bool hit = sharded->ContainsKey(churn_key(k, i));
            if (!hit &&
                staging_round.load(std::memory_order_acquire) < k + 2) {
              false_negatives.fetch_add(1);
            }
          }
        }
        read_batches_done.fetch_add(1);
      }
    });
  }

  for (int r = 0; r < kRounds; ++r) {
    staging_round.store(r, std::memory_order_release);
    if (r >= 2) {
      for (uint64_t i = 0; i < kChurnPerRound; ++i) {
        uint64_t c = churn_key(r - 2, i);
        ASSERT_TRUE(sharded->BufferErase(c, ChurnAttrs(c, 1)).ok());
      }
    }
    if (r >= 1) {
      for (uint64_t i = 0; i < kChurnPerRound; ++i) {
        uint64_t c = churn_key(r - 1, i);
        ASSERT_TRUE(
            sharded->BufferUpdate(c, ChurnAttrs(c, 0), ChurnAttrs(c, 1))
                .ok());
      }
    }
    for (uint64_t i = 0; i < kChurnPerRound; ++i) {
      uint64_t c = churn_key(r, i);
      ASSERT_TRUE(sharded->BufferWrite(c, ChurnAttrs(c, 0)).ok());
    }
    ASSERT_TRUE(sharded->CommitWrites().ok()) << "round " << r;
    committed_round.store(r, std::memory_order_release);
  }

  long target = read_batches_done.load() + 2 * kReaders;
  while (read_batches_done.load() < target) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& rd : readers) rd.join();
  sharded->DrainMaintenance();

  EXPECT_EQ(false_negatives.load(), 0);
  EXPECT_EQ(failed_batches.load(), 0);
  EXPECT_GT(read_batches_done.load(), 0);
  // Survivors: core rows plus the last two churn rounds (round kRounds-1
  // at version 0, round kRounds-2 at version 1).
  EXPECT_EQ(sharded->num_rows(), core.keys.size() + 2 * kChurnPerRound);
  // 10 rounds of 200 erases against this geometry must have tripped the
  // 0.3 dead-fraction watermark along the way.
  EXPECT_GT(sharded->num_compactions(), 0u);

  // Quiesced end state: every live row still answers true; the erased
  // churn keys are gone from the log, and once an explicit compaction
  // clears all residue the log is exactly the live row set.
  ASSERT_TRUE(sharded->Compact().ok());
  EXPECT_EQ(sharded->dead_log_rows(), 0u);
  EXPECT_EQ(sharded->retained_log_rows(), sharded->num_rows());
  for (size_t i = 0; i < core.keys.size(); ++i) {
    ASSERT_TRUE(sharded->Contains(
        core.keys[i], Predicate::Equals(0, core.flat_attrs[2 * i])
                          .AndEquals(1, core.flat_attrs[2 * i + 1])))
        << "core row " << i;
  }
  for (uint64_t i = 0; i < kChurnPerRound; ++i) {
    uint64_t fresh = churn_key(kRounds - 1, i);
    ASSERT_TRUE(sharded->ContainsRow(fresh, ChurnAttrs(fresh, 0)));
    uint64_t updated = churn_key(kRounds - 2, i);
    ASSERT_TRUE(sharded->ContainsRow(updated, ChurnAttrs(updated, 1)));
  }
  // Erased keys: no deterministic per-key claim survives fingerprint
  // aliasing, but in aggregate the fully-compacted filter must answer
  // false for nearly all of them (one-sided error only).
  int erased_hits = 0;
  int erased_probes = 0;
  for (int k = 0; k + 2 < kRounds; ++k) {
    for (uint64_t i = 0; i < kChurnPerRound; ++i, ++erased_probes) {
      if (sharded->ContainsKey(churn_key(k, i))) ++erased_hits;
    }
  }
  EXPECT_LT(erased_hits, erased_probes / 20)
      << "erased keys still probing true far above the FP rate";
}

// The integrity proof for the CRUD commit path: after an interleaved
// insert/update/erase history, Compact() must leave every shard
// BIT-IDENTICAL to a standalone from-scratch batched build of its
// surviving rows — log contents, liveness marks, order, and memo words all
// have to be perfect for the serialized bytes to match.
TEST_P(LiveCrudStressTest, CompactedCrudHistoryMatchesFromScratchBuild) {
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  opts.compact_watermark = 0.0;  // explicit Compact() only: keep the
                                 // mirror simple and the end state exact
  auto sharded =
      ShardedCcf::Make(GetParam(), CrudConfig(31), opts).ValueOrDie();

  // Mirror of the retained log: (key, attrs, live). Commits append insert
  // records in staging order; a committed erase marks every matching
  // earlier live row dead; an update is erase + append, atomically.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> log;
  std::vector<bool> live;
  auto mirror_insert = [&](uint64_t key, std::vector<uint64_t> attrs) {
    log.emplace_back(key, std::move(attrs));
    live.push_back(true);
  };
  auto mirror_erase = [&](uint64_t key, const std::vector<uint64_t>& attrs) {
    for (size_t i = 0; i < log.size(); ++i) {
      if (live[i] && log[i].first == key && log[i].second == attrs) {
        live[i] = false;
      }
    }
  };

  constexpr int kRounds = 10;
  constexpr uint64_t kPerRound = 150;
  for (int r = 0; r < kRounds; ++r) {
    if (r >= 2) {
      for (uint64_t i = 0; i < kPerRound; i += 2) {  // erase half
        uint64_t c = kChurnBase + (r - 2) * kPerRound + i;
        ASSERT_TRUE(sharded->BufferErase(c, ChurnAttrs(c, 1)).ok());
        mirror_erase(c, ChurnAttrs(c, 1));
      }
    }
    if (r >= 1) {
      for (uint64_t i = 0; i < kPerRound; ++i) {
        uint64_t c = kChurnBase + (r - 1) * kPerRound + i;
        ASSERT_TRUE(
            sharded->BufferUpdate(c, ChurnAttrs(c, 0), ChurnAttrs(c, 1))
                .ok());
        mirror_erase(c, ChurnAttrs(c, 0));
        mirror_insert(c, ChurnAttrs(c, 1));
      }
    }
    for (uint64_t i = 0; i < kPerRound; ++i) {
      uint64_t c = kChurnBase + r * kPerRound + i;
      ASSERT_TRUE(sharded->BufferWrite(c, ChurnAttrs(c, 0)).ok());
      mirror_insert(c, ChurnAttrs(c, 0));
    }
    ASSERT_TRUE(sharded->CommitWrites().ok()) << "round " << r;
  }
  sharded->DrainMaintenance();

  Rows survivors;
  for (size_t i = 0; i < log.size(); ++i) {
    if (!live[i]) continue;
    survivors.keys.push_back(log[i].first);
    survivors.flat_attrs.push_back(log[i].second[0]);
    survivors.flat_attrs.push_back(log[i].second[1]);
  }
  EXPECT_EQ(sharded->num_rows(), survivors.keys.size());
  EXPECT_GT(sharded->dead_log_rows(), 0u);

  ASSERT_TRUE(sharded->Compact().ok());
  EXPECT_GE(sharded->num_compactions(),
            static_cast<uint64_t>(sharded->num_shards()));
  EXPECT_EQ(sharded->dead_log_rows(), 0u);
  EXPECT_EQ(sharded->retained_log_rows(), survivors.keys.size());

  for (int s = 0; s < sharded->num_shards(); ++s) {
    Rows routed;
    for (size_t i = 0; i < survivors.keys.size(); ++i) {
      if (sharded->ShardOf(survivors.keys[i]) == static_cast<size_t>(s)) {
        routed.keys.push_back(survivors.keys[i]);
        routed.flat_attrs.push_back(survivors.flat_attrs[2 * i]);
        routed.flat_attrs.push_back(survivors.flat_attrs[2 * i + 1]);
      }
    }
    CcfConfig shard_config = sharded->shard(s).config();
    auto standalone =
        ConditionalCuckooFilter::Make(GetParam(), shard_config).ValueOrDie();
    ASSERT_TRUE(standalone->InsertBatch(routed.keys, routed.flat_attrs).ok());
    EXPECT_EQ(sharded->shard(s).Serialize(), standalone->Serialize())
        << "shard " << s << " diverged from the from-scratch build of its "
        << "surviving rows";
  }

  // And every surviving row still answers true after the rebuild.
  for (size_t i = 0; i < survivors.keys.size(); ++i) {
    ASSERT_TRUE(sharded->ContainsRow(
        survivors.keys[i],
        std::vector<uint64_t>{survivors.flat_attrs[2 * i],
                              survivors.flat_attrs[2 * i + 1]}))
        << "survivor " << i;
  }
}

// The watermark policy keeps the retained log bounded: a sustained
// insert+erase workload at steady live size may never let dead rows
// accumulate past the watermark fraction (plus one commit of slack),
// no matter how many rounds run.
TEST_P(LiveCrudStressTest, WatermarkCompactionBoundsTheRowLog) {
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  opts.compact_watermark = 0.25;
  CcfConfig config = CrudConfig(43);
  config.num_buckets = 2048;  // ample table: isolate log behavior
  auto sharded = ShardedCcf::Make(GetParam(), config, opts).ValueOrDie();

  constexpr uint64_t kLive = 400;
  constexpr int kRounds = 30;
  for (uint64_t i = 0; i < kLive; ++i) {
    uint64_t c = kChurnBase + i;
    ASSERT_TRUE(sharded->BufferWrite(c, ChurnAttrs(c, 0)).ok());
  }
  ASSERT_TRUE(sharded->CommitWrites().ok());
  for (int r = 0; r < kRounds; ++r) {
    // Replace one quarter of the live set each round: erase the oldest
    // cohort, insert a fresh one — live size stays at kLive while the
    // log would grow without bound if compaction never fired.
    for (uint64_t i = 0; i < kLive / 4; ++i) {
      uint64_t dead = kChurnBase + r * (kLive / 4) + i;
      ASSERT_TRUE(sharded->BufferErase(dead, ChurnAttrs(dead, 0)).ok());
      uint64_t born = kChurnBase + kLive + r * (kLive / 4) + i;
      ASSERT_TRUE(sharded->BufferWrite(born, ChurnAttrs(born, 0)).ok());
    }
    ASSERT_TRUE(sharded->CommitWrites().ok()) << "round " << r;
    EXPECT_EQ(sharded->num_rows(), kLive);
    // Post-commit invariant: dead fraction strictly under the watermark
    // (the commit that crossed it compacted before returning).
    uint64_t retained = sharded->retained_log_rows();
    uint64_t dead = sharded->dead_log_rows();
    EXPECT_EQ(retained, kLive + dead);
    EXPECT_LT(static_cast<double>(dead),
              opts.compact_watermark * static_cast<double>(retained) +
                  static_cast<double>(kLive / 4))
        << "round " << r << ": dead=" << dead << " retained=" << retained;
  }
  // 30 rounds x 100 erases against a 400-row live set: the 0.25 watermark
  // must have fired many times, and the log stayed near the live size
  // instead of the ~3400 rows an unbounded log would hold.
  EXPECT_GT(sharded->num_compactions(), 0u);
  EXPECT_LT(sharded->retained_log_rows(), 2 * kLive);
}

// Staged tombstones act on every read path the moment BufferErase /
// BufferUpdate returns — before any commit — and commit preserves the
// exact same answers.
TEST_P(LiveCrudStressTest, StagedTombstonesHideRowsBeforeCommit) {
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  CcfConfig config = CrudConfig(7);
  config.num_buckets = 4096;  // ample: no growth noise in this test
  auto sharded = ShardedCcf::Make(GetParam(), config, opts).ValueOrDie();

  Rows rows = MakeRows(0, 500, 9);
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());

  // Erase every 7th row; update every 7th+3 row to a shifted vector.
  std::vector<size_t> erased, updated;
  for (size_t i = 0; i < rows.keys.size(); i += 7) erased.push_back(i);
  for (size_t i = 3; i < rows.keys.size(); i += 7) updated.push_back(i);
  auto old_attrs = [&](size_t i) {
    return std::vector<uint64_t>{rows.flat_attrs[2 * i],
                                 rows.flat_attrs[2 * i + 1]};
  };
  auto new_attrs = [&](size_t i) {
    return std::vector<uint64_t>{rows.flat_attrs[2 * i] + 1000,
                                 rows.flat_attrs[2 * i + 1] + 1000};
  };
  for (size_t i : erased) {
    ASSERT_TRUE(sharded->BufferErase(rows.keys[i], old_attrs(i)).ok());
  }
  for (size_t i : updated) {
    ASSERT_TRUE(
        sharded->BufferUpdate(rows.keys[i], old_attrs(i), new_attrs(i)).ok());
  }
  EXPECT_EQ(sharded->pending_writes(), erased.size() + 2 * updated.size());

  auto check_answers = [&](const char* when) {
    for (size_t i : erased) {
      EXPECT_FALSE(sharded->ContainsRow(rows.keys[i], old_attrs(i)))
          << when << ": erased row " << i;
      EXPECT_FALSE(sharded->ContainsKey(rows.keys[i]))
          << when << ": erased key " << i;
    }
    for (size_t i : updated) {
      EXPECT_FALSE(sharded->ContainsRow(rows.keys[i], old_attrs(i)))
          << when << ": updated row " << i << " still matches old attrs";
      EXPECT_TRUE(sharded->ContainsRow(rows.keys[i], new_attrs(i)))
          << when << ": updated row " << i;
      EXPECT_TRUE(sharded->ContainsKey(rows.keys[i]))
          << when << ": updated key " << i << " transiently disappeared";
    }
    // Untouched rows are unaffected, on scalar and batched paths alike.
    std::vector<uint64_t> keys;
    std::vector<Predicate> preds;
    for (size_t i = 0; i < rows.keys.size(); ++i) {
      if (i % 7 == 0 || i % 7 == 3) continue;
      keys.push_back(rows.keys[i]);
      preds.push_back(Predicate::Equals(0, rows.flat_attrs[2 * i])
                          .AndEquals(1, rows.flat_attrs[2 * i + 1]));
    }
    std::unique_ptr<bool[]> out(new bool[keys.size()]);
    std::span<bool> out_span(out.get(), keys.size());
    ASSERT_TRUE(sharded->LookupBatch(keys, preds, out_span).ok());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_TRUE(out[i]) << when << ": untouched row " << i;
    }
  };
  check_answers("staged");

  ASSERT_TRUE(sharded->CommitWrites().ok());
  EXPECT_EQ(sharded->pending_writes(), 0u);
  EXPECT_EQ(sharded->num_rows(), rows.keys.size() - erased.size());
  check_answers("committed");

  // A row staged and erased in the SAME batch never lands at all.
  std::vector<uint64_t> attrs = {42, 7};
  ASSERT_TRUE(sharded->BufferWrite(900001, attrs).ok());
  EXPECT_TRUE(sharded->ContainsRow(900001, attrs));
  ASSERT_TRUE(sharded->BufferErase(900001, attrs).ok());
  EXPECT_FALSE(sharded->ContainsRow(900001, attrs));
  uint64_t rows_before = sharded->num_rows();
  ASSERT_TRUE(sharded->CommitWrites().ok());
  EXPECT_EQ(sharded->num_rows(), rows_before);
  EXPECT_FALSE(sharded->ContainsRow(900001, attrs));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, LiveCrudStressTest,
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed),
    [](const ::testing::TestParamInfo<CcfVariant>& pinfo) {
      return std::string(CcfVariantName(pinfo.param));
    });

TEST(LiveCrudDeserializedTest, TombstonesRejectedWithoutRowLog) {
  // Deserialized filters carry no retained log, so there is nothing for a
  // committed erase to mark: BufferErase and BufferUpdate must fail
  // cleanly up front instead of silently losing the deletion.
  auto sharded = ShardedCcf::Make(CcfVariant::kChained, CrudConfig(3),
                                  ShardedCcfOptions{})
                     .ValueOrDie();
  std::vector<uint64_t> attrs = {42, 7};
  ASSERT_TRUE(sharded->Insert(1, attrs).ok());
  std::string blob = sharded->Serialize();
  auto restored_base = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();
  auto* restored = static_cast<ShardedCcf*>(restored_base.get());

  Status st = restored->BufferErase(1, attrs);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("log"), std::string::npos);
  std::vector<uint64_t> attrs2 = {43, 8};
  EXPECT_FALSE(restored->BufferUpdate(1, attrs, attrs2).ok());
  EXPECT_FALSE(restored->Compact().ok());
  // The row is untouched and still serving.
  EXPECT_TRUE(restored->ContainsRow(1, attrs));
  EXPECT_EQ(restored->pending_writes(), 0u);
}

// Regression: an update group (erase + insert) published while a reader is
// inside the exact overlay path must never hide the committed row it
// replaces. The reader probes the staged inserts and then collects the
// staged erases; both reads must see the same overlay prefix, or the group
// is seen as its erase alone. Each round stages a long filler run (so an
// overlay scan is slow and the publish lands inside it) plus one erase
// (so probes take the exact path), then the writer updates every hot key
// once while readers probe them, and a commit folds the updates in.
TEST(LiveCrudUpdateRaceTest, UpdatePublishedMidProbeNeverHidesCommittedRow) {
  ShardedCcfOptions opts;
  opts.num_shards = 1;
  opts.compact_watermark = 0.0;
  auto sharded = ShardedCcf::Make(CcfVariant::kChained, CrudConfig(23), opts)
                     .ValueOrDie();
  constexpr uint64_t kHot = 32;
  constexpr uint64_t kMarker = kChurnBase - 1;
  auto hot_attrs = [](uint64_t k, uint64_t version) {
    return std::vector<uint64_t>{(k * 7 + version) % 200, version % 50};
  };
  for (uint64_t k = 0; k < kHot; ++k) {
    ASSERT_TRUE(sharded->Insert(k, hot_attrs(k, 0)).ok());
  }
  const std::vector<uint64_t> marker_attrs = {1, 1};
  ASSERT_TRUE(sharded->Insert(kMarker, marker_attrs).ok());
  Rows filler = MakeRows(kChurnBase, 20000, 29);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> false_negatives{0};
  std::atomic<uint64_t> probes{0};
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t k = rng.NextBelow(kHot);
      if (!sharded->ContainsKey(k)) false_negatives.fetch_add(1);
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader, 31), r2(reader, 37);
  constexpr uint64_t kRounds = 12;
  for (uint64_t round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(sharded->BufferWriteBatch(filler.keys, filler.flat_attrs).ok());
    ASSERT_TRUE(sharded->BufferErase(kMarker, marker_attrs).ok());
    for (uint64_t k = 0; k < kHot; ++k) {
      ASSERT_TRUE(sharded
                      ->BufferUpdate(k, hot_attrs(k, round),
                                     hot_attrs(k, round + 1))
                      .ok());
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    ASSERT_TRUE(sharded->CommitWrites().ok());
    ASSERT_TRUE(sharded->Insert(kMarker, marker_attrs).ok());
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(probes.load(), 0u);
  EXPECT_EQ(false_negatives.load(), 0u);
  for (uint64_t k = 0; k < kHot; ++k) {
    EXPECT_TRUE(sharded->Contains(
        k, Predicate::Equals(0, hot_attrs(k, kRounds)[0])));
  }
}

}  // namespace
}  // namespace ccf
