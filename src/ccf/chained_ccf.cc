#include "ccf/chained_ccf.h"

#include <algorithm>
#include <optional>

#include "ccf/entry_match.h"

namespace ccf {

ChainedCcf::ChainedCcf(CcfConfig config, BucketTable table)
    : CcfBase(config, std::move(table)),
      codec_(&hasher_, config.num_attrs, config.attr_fp_bits,
             config.small_value_opt) {}

std::unique_ptr<ConditionalCuckooFilter> ChainedCcf::Make(
    const CcfConfig& config, BucketTable table) {
  return std::unique_ptr<ConditionalCuckooFilter>(
      new ChainedCcf(config, std::move(table)));
}

Status ChainedCcf::Insert(uint64_t key, std::span<const uint64_t> attrs) {
  if (static_cast<int>(attrs.size()) != config_.num_attrs) {
    return Status::Invalid("attribute count does not match schema");
  }
  EnsureTableUnique();
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  BucketPair pair = PairOf(bucket, fp);
  return InsertAddressed(pair, fp, attrs);
}

Status ChainedCcf::InsertBatch(std::span<const uint64_t> keys,
                               std::span<const uint64_t> attrs,
                               std::vector<uint64_t>* hash_memo) {
  // One cursor per call, never member state: it is only sound while no
  // writer but this batch's wave 2 touches the table.
  ChainCursor cursor;
  ChainSeeds seeds;
  cursor.seeds = &seeds;
  // Set by wave 2: the next wave-1 row starts a new block.
  bool wave2_ran = false;
  // The (first-pair primary, fp) of the last row wave 1 found saturated
  // (>= max_dupes copies of fp), also per call. Copies of fp in a pair
  // never decrease during a batch — wave 1 only fills free slots, and a
  // kick moves an entry to the other bucket of its own pair — so a later
  // row with this address skips the first-pair scan and goes straight to
  // wave 2. The scan's only other outcome for it, collapsing into an
  // identical entry, writes nothing, and wave 2's hop-0 duplicate check
  // reaches the same collapse.
  bool have_saturated = false;
  uint64_t saturated_primary = 0;
  uint32_t saturated_fp = 0;
  // Wave 2 walks a saturated chain's hops 1.. one dependent miss after
  // another, so wave 1 prefetches them while the rest of the block runs.
  // The n-th row deferred to a chain lands on hop 1 + (n - 1) / max_dupes
  // at the earliest (each hop holds max_dupes copies), so each deferred
  // row extends the prefetch walk to that hop: a range build's η = 11
  // label rows with max_dupes = 3 prefetch hops 1-3, a key with fewer
  // copies fewer. The walk is a pure function of (primary, fp): it reads
  // no table state, so it never goes stale, and `seeds` keeps the pairs it
  // produced for wave 2's cursor. Off where the pair prefetches are
  // (InsertPrefetches).
  const bool prefetch = InsertPrefetches(table_->SizeInBits());
  std::optional<ChainWalk> hop_walk;
  int deferred_rows = 0;
  auto prefetch_next_hop = [&]() {
    const int hop = 1 + deferred_rows / config_.max_dupes;
    if (hop >= ChainCap()) return;
    ++deferred_rows;
    if (hop <= hop_walk->hops()) return;
    hop_walk->Advance();
    const BucketPair& next = hop_walk->pair();
    seeds.Append(next);
    table_->PrefetchBucketForInsert(next.primary);
    if (!next.degenerate()) table_->PrefetchBucketForInsert(next.alt);
  };
  return InsertBatchWith(
      keys, attrs, hash_memo,
      [&](const BucketPair& pair, uint32_t fp, std::span<const uint64_t> row,
          uint64_t payload) {
        cursor.Reset();
        if (wave2_ran) {
          seeds.NewBlock();
          wave2_ran = false;
        }
        if (have_saturated && pair.primary == saturated_primary &&
            fp == saturated_fp) {
          if (prefetch) prefetch_next_hop();
          return false;
        }
        bool saturated = false;
        if (TryInsertFirstPair(pair, fp, row, payload, &saturated)) {
          return true;
        }
        if (saturated) {
          have_saturated = true;
          saturated_primary = pair.primary;
          saturated_fp = fp;
          if (prefetch) {
            if (hop_walk) {
              hop_walk->Restart(pair.primary, fp);
            } else {
              hop_walk.emplace(&hasher_, table_->bucket_mask(), pair.primary,
                               fp);
            }
            seeds.Begin(pair.primary, fp);
            deferred_rows = 0;
            prefetch_next_hop();
          }
        }
        return false;
      },
      [&](const BucketPair& pair, uint32_t fp, std::span<const uint64_t> row,
          uint64_t payload) {
        wave2_ran = true;
        return InsertThroughCursor(pair, fp, row, payload, &cursor);
      });
}

Status ChainedCcf::InsertAddressed(const BucketPair& first_pair, uint32_t fp,
                                   std::span<const uint64_t> attrs) {
  ChainCursor cursor;
  return InsertThroughCursor(first_pair, fp, attrs, PackRowPayload(attrs),
                             &cursor);
}

void ChainedCcf::ExtendCursor(const BucketPair& first_pair,
                              ChainCursor* cursor) const {
  const size_t hop = cursor->hops.size();
  BucketPair pair = first_pair;
  if (hop == 1 && cursor->seeds != nullptr) {
    cursor->seed = cursor->seeds->Find(first_pair.primary, cursor->fp);
  }
  if (hop > 0 && hop <= cursor->seed.size()) {
    pair = cursor->seed[hop - 1];
  } else if (hop > 0) {
    if (hop == cursor->seed.size() + 1) {
      // The first hop past the seed: position the walk at hop - 1.
      if (cursor->walk) {
        cursor->walk->Restart(first_pair.primary, cursor->fp);
      } else {
        cursor->walk.emplace(&hasher_, table_->bucket_mask(),
                             first_pair.primary, cursor->fp);
      }
      for (size_t h = 1; h < hop; ++h) cursor->walk->Advance();
    }
    cursor->walk->Advance();
    pair = cursor->walk->pair();
  }
  const bool packed = table_->slot_bits() <= 64;
  const int vec_bits = codec_.vector_bits();
  const size_t stride = 2 * static_cast<size_t>(table_->slots_per_bucket());
  if (packed && cursor->words.size() < (hop + 1) * stride) {
    cursor->words.resize((hop + 1) * stride);
  }
  int count = 0;
  ScanPairWithFp(pair, cursor->fp, [&](uint64_t b, int s) {
    if (packed) {
      cursor->words[hop * stride + static_cast<size_t>(count)] =
          table_->GetPayloadField(b, s, 0, vec_bits);
    }
    ++count;
    return false;
  });
  cursor->hops.push_back(ChainCursor::Hop{
      pair, pair.Canonical(table_->num_buckets()), count});
}

void ChainedCcf::ChainSeeds::Begin(uint64_t primary, uint32_t fp) {
  chains_.push_back(Chain{primary, fp, pairs_.size(), 0});
}

void ChainedCcf::ChainSeeds::Append(const BucketPair& pair) {
  pairs_.push_back(pair);
  ++chains_.back().count;
}

void ChainedCcf::ChainSeeds::NewBlock() {
  next_ = 0;
  if (chains_.empty()) return;
  Chain last = chains_.back();
  pairs_.erase(pairs_.begin(),
               pairs_.begin() + static_cast<std::ptrdiff_t>(last.begin));
  last.begin = 0;
  chains_.assign(1, last);
}

std::span<const BucketPair> ChainedCcf::ChainSeeds::Find(uint64_t primary,
                                                         uint32_t fp) {
  for (size_t i = next_; i < chains_.size(); ++i) {
    if (chains_[i].primary == primary && chains_[i].fp == fp) {
      next_ = i;
      return std::span<const BucketPair>(pairs_).subspan(chains_[i].begin,
                                                         chains_[i].count);
    }
  }
  return {};
}

Status ChainedCcf::InsertThroughCursor(const BucketPair& first_pair,
                                       uint32_t fp,
                                       std::span<const uint64_t> attrs,
                                       uint64_t payload,
                                       ChainCursor* cursor) {
  if (cursor->primary != first_pair.primary || cursor->fp != fp) {
    cursor->primary = first_pair.primary;
    cursor->fp = fp;
    cursor->Reset();
  }
  const bool packed = table_->slot_bits() <= 64;
  const int vec_bits = codec_.vector_bits();
  const size_t stride = 2 * static_cast<size_t>(table_->slots_per_bucket());
  for (int hop = 0; hop < ChainCap(); ++hop) {
    const size_t h = static_cast<size_t>(hop);
    if (h == cursor->hops.size()) ExtendCursor(first_pair, cursor);
    const ChainCursor::Hop& cur = cursor->hops[h];
    CCF_DCHECK(cur.count == CountFpInPair(cur.pair, fp));

    // Algorithm 4: success if the identical (κ, α) entry already exists —
    // one word compare per cached copy, or the per-attribute matcher where
    // no packed payload word exists.
    bool dup;
    if (packed) {
      const uint64_t* words = cursor->words.data() + h * stride;
      dup = std::find(words, words + cur.count, payload) != words + cur.count;
    } else {
      dup = ScanPairWithFp(cur.pair, fp, [&](uint64_t b, int s) {
              return codec_.EqualsStored(*table_, b, s, /*base=*/0, attrs);
            }).second;
    }
    if (dup) {
      if (hop > max_chain_seen_) max_chain_seen_ = hop;
      return Status::OK();
    }

    // Pair saturated with κ copies: next pair (ℓ̃).
    if (cur.count >= config_.max_dupes) continue;

    bool placed = PlaceWithKicks(cur.pair, fp, [&](uint64_t b, int s) {
      if (packed) {
        table_->SetPayloadField(b, s, 0, vec_bits, payload);
      } else {
        codec_.Store(table_.get(), b, s, /*base=*/0, attrs);
      }
    });
    if (!placed) {
      cursor->Reset();
      return Status::CapacityError(
          "chained CCF: cuckoo kick budget exhausted");
    }
    // The new copy joins every cached hop on this pair: past ChainWalk's
    // cycle-extension rounds one pair can sit at two hop indices.
    const uint64_t canonical = cur.canonical;
    for (size_t i = 0; i < cursor->hops.size(); ++i) {
      ChainCursor::Hop& other = cursor->hops[i];
      if (other.canonical != canonical) continue;
      CCF_DCHECK(static_cast<size_t>(other.count) < stride);
      if (packed) {
        cursor->words[i * stride + static_cast<size_t>(other.count)] = payload;
      }
      ++other.count;
    }
    if (hop > max_chain_seen_) max_chain_seen_ = hop;
    ++num_rows_;
    return Status::OK();
  }

  // Every pair up to the cap holds d copies of κ: queries for this key
  // return true regardless of predicate (Theorem 3), so dropping the row
  // cannot cause a false negative.
  ++num_overflow_rows_;
  return Status::OK();
}

uint64_t ChainedCcf::PackRowPayload(std::span<const uint64_t> attrs) const {
  return table_->slot_bits() <= 64 ? codec_.Pack(attrs) : 0;
}

bool ChainedCcf::TryInsertNoKick(const BucketPair& pair, uint32_t fp,
                                 std::span<const uint64_t> attrs,
                                 uint64_t payload) {
  bool saturated;
  return TryInsertFirstPair(pair, fp, attrs, payload, &saturated);
}

bool ChainedCcf::TryInsertFirstPair(const BucketPair& pair, uint32_t fp,
                                    std::span<const uint64_t> attrs,
                                    uint64_t payload, bool* saturated) {
  *saturated = false;
  if (table_->slot_bits() > 64) {
    // Oversized geometry: per-attribute scan and store (cold fallback).
    auto [count, dup] = ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
      return codec_.EqualsStored(*table_, b, s, /*base=*/0, attrs);
    });
    if (dup) return true;
    if (count >= config_.max_dupes) {
      *saturated = true;
      return false;
    }
    auto [b, s] = FreeSlotInPair(pair);
    if (s < 0) return false;
    table_->Put(b, s, fp);
    codec_.Store(table_.get(), b, s, /*base=*/0, attrs);
    ++num_rows_;
    return true;
  }
  // Packed fast path: the row's vector was hashed once into `payload`
  // (PackRowPayload, possibly straight from the rebuild memo); one fused
  // pass per bucket serves the duplicate compare (single-field equality),
  // the fp copy count, and the free-slot search (countr_one of the
  // occupancy word) — and placement writes the whole slot in one field
  // store. Decisions are identical to the generic path above.
  (void)attrs;
  const int vec_bits = codec_.vector_bits();
  const uint64_t packed = payload;
  int count = 0;
  uint64_t free_bucket = 0;
  int free_slot = -1;
  auto scan = [&](uint64_t b) {  // returns true on a duplicate hit
    uint64_t occ = table_->OccupiedMask(b);
    uint64_t m = table_->MatchMask(b, fp) & occ;
    while (m != 0) {
      int s = std::countr_zero(m);
      m &= m - 1;
      ++count;
      if (table_->GetPayloadField(b, s, 0, vec_bits) == packed) return true;
    }
    if (free_slot < 0) {
      int fs = std::countr_one(occ);
      if (fs < table_->slots_per_bucket()) {
        free_bucket = b;
        free_slot = fs;
      }
    }
    return false;
  };
  if (scan(pair.primary)) return true;  // collapsed
  if (!pair.degenerate() && scan(pair.alt)) return true;
  if (count >= config_.max_dupes) {  // chain walk: wave 2
    *saturated = true;
    return false;
  }
  if (free_slot < 0) return false;  // displacement needed: wave 2
  table_->PutSlot(free_bucket, free_slot, fp, packed);
  ++num_rows_;
  return true;
}

bool ChainedCcf::EraseRowAddressed(const BucketPair& first_pair, uint32_t fp,
                                   uint64_t payload) {
  // Walk the chain for the exact (fp, packed vector) entry. Deletion is
  // only safe from an UNSATURATED pair: removing a copy from a pair
  // holding max_dupes copies would stop every future walk there, stranding
  // entries further down the chain (false negatives), and could break the
  // §7.1 first-pair invariant. An unsaturated pair is by construction the
  // chain's terminal pair, so nothing lives beyond it and erasing is safe.
  // Saturated matches are left as residue for compaction.
  const int vec_bits = codec_.vector_bits();
  std::optional<ChainWalk> walk;
  BucketPair pair = first_pair;
  for (int hop = 0; hop < ChainCap(); ++hop) {
    if (hop > 0) pair = walk->pair();
    uint64_t hit_b = 0;
    int hit_s = -1;
    // Count the WHOLE pair (no short-circuit): saturation decides both
    // deletability and chain continuation.
    auto [count, matched] = ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
      if (hit_s < 0 &&
          table_->GetPayloadField(b, s, 0, vec_bits) == payload) {
        hit_b = b;
        hit_s = s;
      }
      return false;
    });
    (void)matched;
    if (hit_s >= 0) {
      if (count >= config_.max_dupes) return false;  // residue: compaction
      table_->Erase(hit_b, hit_s);
      return true;
    }
    if (count != config_.max_dupes) return false;  // chain ends: not found
    if (hop + 1 < ChainCap()) {
      if (!walk) {
        walk.emplace(&hasher_, table_->bucket_mask(), first_pair.primary, fp);
      }
      walk->Advance();
    }
  }
  return false;
}

bool ChainedCcf::ContainsKey(uint64_t key) const {
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  // §7.1: the chain is irrelevant for key-only queries — a present key
  // always has a copy in its first bucket pair.
  return CountFpInPair(PairOf(bucket, fp), fp) > 0;
}

bool ChainedCcf::Contains(uint64_t key, const Predicate& pred) const {
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  return ContainsAddressed(bucket, fp, pred);
}

bool ChainedCcf::ContainsAddressed(uint64_t bucket, uint32_t fp,
                                   const Predicate& pred) const {
  return WalkContains(PairOf(bucket, fp), fp, [&](uint64_t b, int s) {
    return VectorEntryMatches(*table_, b, s, /*base=*/0, codec_, pred);
  });
}

bool ChainedCcf::ContainsAddressedExcluding(
    uint64_t bucket, uint32_t fp, const Predicate& pred,
    std::span<const uint64_t> excluded) const {
  if (excluded.empty()) return ContainsAddressed(bucket, fp, pred);
  CCF_DCHECK(table_->slot_bits() <= 64);
  // Excluded entries are physically present until commit reclaims them, so
  // the walk's saturation counts (ScanPairWithFp's totals) are unchanged;
  // they merely stop matching. The terminal all-saturated case still
  // answers true — one-sided, exactly like any other false positive.
  return WalkContains(PairOf(bucket, fp), fp, [&](uint64_t b, int s) {
    return !PayloadExcluded(EntryPayloadWord(b, s), excluded) &&
           VectorEntryMatches(*table_, b, s, /*base=*/0, codec_, pred);
  });
}

bool ChainedCcf::ContainsKeyAddressedExcluding(
    uint64_t bucket, uint32_t fp, std::span<const uint64_t> excluded) const {
  if (excluded.empty()) return ContainsKeyAddressed(bucket, fp);
  CCF_DCHECK(table_->slot_bits() <= 64);
  // A surviving row of the key may live further down the chain while every
  // first-pair copy is staged-erased (the first pair must then be
  // saturated, which is exactly the walk-continues condition) — so the
  // key-only exclusion probe needs the full walk, not the §7.1 first-pair
  // shortcut.
  return WalkContains(PairOf(bucket, fp), fp, [&](uint64_t b, int s) {
    return !PayloadExcluded(EntryPayloadWord(b, s), excluded);
  });
}

void ChainedCcf::LookupBatchBroadcast(std::span<const uint64_t> keys,
                                      const Predicate& pred,
                                      std::span<bool> out) const {
  // One predicate for the whole batch: hash its values once, compare raw
  // fingerprints per entry.
  CompiledVectorPredicate compiled =
      CompiledVectorPredicate::Compile(codec_, pred);
  BatchResolve(keys, out, [&](size_t, const BucketPair& pair, uint32_t fp) {
    return WalkContains(pair, fp, [&](uint64_t b, int s) {
      return VectorEntryMatchesCompiled(*table_, b, s, /*base=*/0, codec_,
                                        compiled);
    });
  });
}

Result<std::unique_ptr<KeyFilter>> ChainedCcf::PredicateQuery(
    const Predicate& pred) const {
  // §6.2: entries cannot be erased (gaps would break chains); instead each
  // non-matching entry is marked with an extra bit.
  BitVector marks(table_->num_slots());
  for (uint64_t b = 0; b < table_->num_buckets(); ++b) {
    for (int s = 0; s < table_->slots_per_bucket(); ++s) {
      if (!table_->occupied(b, s)) continue;
      if (!VectorEntryMatches(*table_, b, s, /*base=*/0, codec_, pred)) {
        marks.SetBit(b * static_cast<uint64_t>(table_->slots_per_bucket()) +
                         static_cast<uint64_t>(s),
                     true);
      }
    }
  }
  return std::unique_ptr<KeyFilter>(new MarkedKeyFilter(
      table_, std::move(marks), hasher_, config_.max_dupes, ChainCap(),
      /*chain_on_full_pair=*/true));
}

void ChainedCcf::SaveExtras(ByteWriter* writer) const {
  writer->WriteU64(num_overflow_rows_);
  writer->WriteU32(static_cast<uint32_t>(max_chain_seen_));
}

Status ChainedCcf::LoadExtras(ByteReader* reader) {
  CCF_ASSIGN_OR_RETURN(num_overflow_rows_, reader->ReadU64());
  CCF_ASSIGN_OR_RETURN(uint32_t seen, reader->ReadU32());
  max_chain_seen_ = static_cast<int>(seen);
  return Status::OK();
}

}  // namespace ccf
