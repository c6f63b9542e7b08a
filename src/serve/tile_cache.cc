#include "serve/tile_cache.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/macros.h"

namespace tilecomp::serve {

namespace {

// kCostAware tuning. The victim window bounds the ranking scan to the
// coldest unpinned entries (recency pre-filters; cost ranks within). The
// ghost step is the ARC adaptation increment per ghost hit: 16 consecutive
// one-sided ghost hits swing the weight across its full range.
constexpr size_t kVictimWindow = 8;
constexpr double kGhostStep = 1.0 / 16.0;

}  // namespace

// Tile ids index 512-value tiles of a uint32-count column, so they fit in
// 32 bits with room to spare; pack (column, tile) into one map key. An
// out-of-range id would silently alias another column's key and serve its
// data, so this stays a release-mode check — the callers are query-supplied
// paths, not hot inner loops.
uint64_t TileCache::MakeKey(codec::ColumnId column_id, int64_t tile_id) {
  TILECOMP_CHECK_MSG(tile_id >= 0 && tile_id < (int64_t{1} << 32),
                     "tile_id out of the 32-bit key range");
  return (static_cast<uint64_t>(column_id.value()) << 32) |
         static_cast<uint64_t>(tile_id);
}

struct TileCacheEntry {
  uint64_t key = 0;
  std::vector<uint32_t> values;
  uint32_t pins = 0;
  bool zombie = false;       // invalidated while pinned; freed at last unpin
  bool speculative = false;  // staged by the prefetcher, no demand hit yet
  bool prefetched = false;   // sticky origin flag for hit attribution
  uint64_t hit_count = 0;    // demand hits (kCostAware frequency signal)
  uint64_t decode_cost = 1;
  uint64_t encoded_bytes = 0;
  // Mutable-column tile generation the decode observed (0: immutable).
  uint64_t generation = 0;
  std::list<TileCacheEntry*>::iterator pos;

  uint64_t bytes() const { return values.size() * sizeof(uint32_t); }
};

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kCostAware:
      return "cost";
  }
  return "?";
}

// --- PinnedTile ---

TileCache::PinnedTile& TileCache::PinnedTile::operator=(
    PinnedTile&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    entry_ = other.entry_;
    other.cache_ = nullptr;
    other.entry_ = nullptr;
  }
  return *this;
}

const uint32_t* TileCache::PinnedTile::data() const {
  TILECOMP_DCHECK(entry_ != nullptr);
  return entry_->values.data();
}

uint32_t TileCache::PinnedTile::count() const {
  TILECOMP_DCHECK(entry_ != nullptr);
  return static_cast<uint32_t>(entry_->values.size());
}

void TileCache::PinnedTile::Release() {
  if (entry_ != nullptr) {
    std::lock_guard<std::mutex> lock(cache_->mu_);
    cache_->UnpinLocked(entry_);
    cache_ = nullptr;
    entry_ = nullptr;
  }
}

// --- TileCache ---

TileCache::TileCache(uint64_t budget_bytes, EvictionPolicy policy)
    : budget_bytes_(budget_bytes),
      policy_(policy),
      ghost_capacity_(std::max<uint64_t>(
          64, budget_bytes / (512 * sizeof(uint32_t)))) {}

TileCache::~TileCache() {
  // Every pin must be released before the cache dies. A non-empty zombie
  // list means an invalidated entry still has live handles.
  for (const auto& [key, entry] : entries_) {
    TILECOMP_CHECK_MSG(entry->pins == 0,
                       "TileCache destroyed with live PinnedTile handles");
  }
  TILECOMP_CHECK_MSG(zombies_.empty(),
                     "TileCache destroyed with live PinnedTile handles");
}

TileCache::Entry* TileCache::FindLocked(codec::ColumnId column_id, int64_t tile_id) {
  auto it = entries_.find(MakeKey(column_id, tile_id));
  return it == entries_.end() ? nullptr : it->second.get();
}

void TileCache::TouchLocked(Entry* entry) {
  // Both policies keep the list in recency order: move to the hot (back)
  // end.
  order_.splice(order_.end(), order_, entry->pos);
}

void TileCache::RemoveLocked(Entry* entry, bool count_eviction) {
  TILECOMP_DCHECK(entry->pins == 0);
  order_.erase(entry->pos);
  stats_.bytes_in_use -= entry->bytes();
  if (count_eviction) ++stats_.evictions;
  // A speculative entry leaving residency before any demand hit means the
  // prefetch that staged it never paid off.
  if (entry->speculative) ++stats_.prefetch_wasted;
  entries_.erase(entry->key);  // frees the entry
}

TileCache::Entry* TileCache::PickCostAwareVictimLocked() {
  Entry* best = nullptr;
  double best_score = 0.0;
  size_t considered = 0;
  for (auto it = order_.begin();
       it != order_.end() && considered < kVictimWindow; ++it) {
    Entry* e = *it;
    if (e->pins > 0) continue;
    // Tier 0: speculation that never saw a demand hit goes first, coldest
    // first — unused prefetch must never displace proven entries.
    if (e->speculative) return e;
    ++considered;
    // Rebuild cost per resident byte: what evicting this entry will cost
    // the next query that wants it, normalized by the room it frees.
    const double rebuild = static_cast<double>(e->decode_cost) *
                           static_cast<double>(e->encoded_bytes) /
                           static_cast<double>(e->bytes());
    // Hotness mixes the window recency rank (cold -> small) with the
    // saturating demand-hit count, weighted by the ghost-adapted p.
    const double recency =
        static_cast<double>(considered) / static_cast<double>(kVictimWindow);
    const double frequency =
        static_cast<double>(std::min<uint64_t>(e->hit_count, 15) + 1) / 16.0;
    const double score =
        rebuild * ((1.0 - frequency_weight_) * recency +
                   frequency_weight_ * frequency);
    if (best == nullptr || score < best_score) {
      best = e;
      best_score = score;
    }
  }
  return best;
}

void TileCache::GhostInsertLocked(GhostList* list, uint64_t key) {
  if (!list->keys.insert(key).second) return;
  list->fifo.push_back(key);
  while (list->keys.size() > ghost_capacity_ && !list->fifo.empty()) {
    list->keys.erase(list->fifo.front());
    list->fifo.pop_front();
  }
}

void TileCache::GhostRecordLocked(Entry* entry) {
  if (policy_ != EvictionPolicy::kCostAware) return;
  // Never-hit victims go to the recency ghost (B1): a miss on one of them
  // says we evicted fresh data too eagerly. Reused victims go to the
  // frequency ghost (B2): a miss there says hit counts deserved more
  // protection.
  GhostInsertLocked(entry->hit_count == 0 ? &ghost_recency_ : &ghost_frequency_,
                    entry->key);
}

void TileCache::GhostMissLocked(uint64_t key) {
  if (policy_ != EvictionPolicy::kCostAware) return;
  if (ghost_recency_.keys.erase(key) > 0) {
    frequency_weight_ = std::max(0.0, frequency_weight_ - kGhostStep);
  } else if (ghost_frequency_.keys.erase(key) > 0) {
    frequency_weight_ = std::min(1.0, frequency_weight_ + kGhostStep);
  }
}

bool TileCache::MakeRoomLocked(uint64_t needed, uint64_t* evictions) {
  const uint64_t before = stats_.evictions;
  if (needed > budget_bytes_) {
    if (evictions != nullptr) *evictions = 0;
    return false;
  }
  if (policy_ == EvictionPolicy::kLru) {
    // Scan cold -> hot, skipping pinned entries.
    auto it = order_.begin();
    while (stats_.bytes_in_use + needed > budget_bytes_ &&
           it != order_.end()) {
      Entry* victim = *it;
      ++it;
      if (victim->pins == 0) EvictLocked(victim);
    }
  } else {
    // Cost-aware: rank a window of the coldest unpinned entries and evict
    // the cheapest-to-rebuild (speculative never-hit first), recording
    // capacity victims in the ghost lists for the recency/frequency
    // adaptation.
    while (stats_.bytes_in_use + needed > budget_bytes_) {
      Entry* victim = PickCostAwareVictimLocked();
      if (victim == nullptr) break;  // everything resident is pinned
      GhostRecordLocked(victim);
      EvictLocked(victim);
    }
  }
  if (evictions != nullptr) *evictions = stats_.evictions - before;
  return stats_.bytes_in_use + needed <= budget_bytes_;
}

void TileCache::UnpinLocked(Entry* entry) {
  TILECOMP_DCHECK(entry->pins > 0);
  --entry->pins;
  if (entry->pins == 0 && entry->zombie) {
    // Last handle to an invalidated entry: its storage can finally go.
    stats_.bytes_in_use -= entry->bytes();
    for (auto it = zombies_.begin(); it != zombies_.end(); ++it) {
      if (it->get() == entry) {
        zombies_.erase(it);
        break;
      }
    }
  }
}

TileCache::PinnedTile TileCache::Lookup(codec::ColumnId column_id, int64_t tile_id,
                                        uint64_t saved_encoded_bytes,
                                        LookupInfo* info) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindLocked(column_id, tile_id);
  if (entry == nullptr) {
    ++stats_.misses;
    GhostMissLocked(MakeKey(column_id, tile_id));
    return PinnedTile();
  }
  if (entry->prefetched) {
    ++stats_.prefetch_hits;
    if (info != nullptr) info->prefetch_hit = true;
  } else {
    ++stats_.hits;
  }
  if (entry->speculative) {
    // First demand hit on a staged tile: the speculation paid off. Promote
    // it to a regular resident so it is no longer first in line to evict.
    entry->speculative = false;
    ++stats_.prefetch_useful;
    if (info != nullptr) info->promoted = true;
  }
  ++entry->hit_count;
  stats_.saved_bytes += saved_encoded_bytes;
  TouchLocked(entry);
  ++entry->pins;
  return PinnedTile(this, entry);
}

bool TileCache::Contains(codec::ColumnId column_id, int64_t tile_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(MakeKey(column_id, tile_id)) != 0;
}

TileCache::PinnedTile TileCache::Peek(codec::ColumnId column_id, int64_t tile_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindLocked(column_id, tile_id);
  if (entry == nullptr) return PinnedTile();
  ++entry->pins;
  return PinnedTile(this, entry);
}

void TileCache::CreditSaved(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.saved_bytes += bytes;
}

TileCache::PinnedTile TileCache::Insert(codec::ColumnId column_id, int64_t tile_id,
                                        const uint32_t* values, uint32_t count,
                                        uint64_t* evictions, TileCost cost,
                                        uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (evictions != nullptr) *evictions = 0;
  // Generation floor: a decode that observed a pre-mutation extent must not
  // become resident, no matter how the insert raced the invalidation.
  auto floor = insert_floors_.find(MakeKey(column_id, tile_id));
  if (floor != insert_floors_.end() && generation < floor->second) {
    ++stats_.stale_refused;
    return PinnedTile();
  }
  if (Entry* existing = FindLocked(column_id, tile_id)) {
    // Another block inserted this tile first; pin the resident copy. If a
    // prefetch staged it but demand re-decoded anyway (possible when the
    // demand miss pre-dated the speculative insert), the speculation did
    // not pay off — demote the entry to a plain demand resident without
    // counting it useful.
    existing->speculative = false;
    existing->prefetched = false;
    ++existing->pins;
    return PinnedTile(this, existing);
  }
  const uint64_t bytes = static_cast<uint64_t>(count) * sizeof(uint32_t);
  // Injected faults: a device-memory allocation failure or a corrupted
  // insert. Both degrade to a refused insert — callers already handle that
  // (the tile is simply not cached; the caller keeps its own decoded copy).
  // Keyed draws so concurrent blocks inserting different tiles decide
  // deterministically regardless of interleaving.
  if (fault_plan_ != nullptr) {
    const uint64_t key = MakeKey(column_id, tile_id);
    if (fault_plan_->ShouldFault(fault::FaultSite::kDeviceAlloc, key) ||
        fault_plan_->ShouldFault(fault::FaultSite::kCacheInsert, key)) {
      ++stats_.insert_failures;
      return PinnedTile();
    }
  }
  if (!MakeRoomLocked(bytes, evictions)) {
    ++stats_.insert_failures;
    return PinnedTile();
  }
  auto entry = std::make_unique<Entry>();
  entry->key = MakeKey(column_id, tile_id);
  entry->values.assign(values, values + count);
  entry->pins = 1;
  entry->decode_cost = cost.decode_cost;
  entry->encoded_bytes = cost.encoded_bytes;
  entry->generation = generation;
  Entry* raw = entry.get();
  order_.push_back(raw);
  raw->pos = std::prev(order_.end());
  entries_[raw->key] = std::move(entry);
  stats_.bytes_in_use += bytes;
  ++stats_.inserts;
  return PinnedTile(this, raw);
}

SpeculativeInsert TileCache::InsertSpeculative(codec::ColumnId column_id,
                                               int64_t tile_id,
                                               const uint32_t* values,
                                               uint32_t count, TileCost cost,
                                               uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  // Same staleness barrier as the demand path; a refused speculative decode
  // is also wasted prefetch work.
  auto floor = insert_floors_.find(MakeKey(column_id, tile_id));
  if (floor != insert_floors_.end() && generation < floor->second) {
    ++stats_.stale_refused;
    ++stats_.prefetch_wasted;
    return SpeculativeInsert::kRefused;
  }
  if (FindLocked(column_id, tile_id) != nullptr) {
    // The demand path (or an earlier prefetch round) got here first.
    ++stats_.prefetch_late;
    return SpeculativeInsert::kAlreadyResident;
  }
  // Same injection sites as the demand path, keyed identically; a faulted
  // speculative insert is dropped silently — nothing poisoned, nothing
  // cached — and the decode that fed it is wasted work.
  if (fault_plan_ != nullptr) {
    const uint64_t key = MakeKey(column_id, tile_id);
    if (fault_plan_->ShouldFault(fault::FaultSite::kDeviceAlloc, key) ||
        fault_plan_->ShouldFault(fault::FaultSite::kCacheInsert, key)) {
      ++stats_.insert_failures;
      ++stats_.prefetch_wasted;
      return SpeculativeInsert::kRefused;
    }
  }
  const uint64_t bytes = static_cast<uint64_t>(count) * sizeof(uint32_t);
  if (!MakeRoomLocked(bytes, nullptr)) {
    ++stats_.insert_failures;
    ++stats_.prefetch_wasted;
    return SpeculativeInsert::kRefused;
  }
  auto entry = std::make_unique<Entry>();
  entry->key = MakeKey(column_id, tile_id);
  entry->values.assign(values, values + count);
  entry->pins = 0;
  entry->speculative = true;
  entry->prefetched = true;
  entry->decode_cost = cost.decode_cost;
  entry->encoded_bytes = cost.encoded_bytes;
  entry->generation = generation;
  Entry* raw = entry.get();
  // Stage at the warm end: a predicted tile exists to be read by the NEXT
  // query, so it gets one replacement cycle of residency to prove itself —
  // staging cold would let each speculative insert's room-making evict the
  // previously staged tile the moment the cache is full (speculation
  // churning on itself, never surviving to a hit). Low priority is enforced
  // elsewhere: the kCostAware victim scan takes never-hit speculative
  // entries first, and an unused entry that ages out counts as wasted.
  order_.push_back(raw);
  raw->pos = std::prev(order_.end());
  entries_[raw->key] = std::move(entry);
  stats_.bytes_in_use += bytes;
  ++stats_.inserts;
  return SpeculativeInsert::kInserted;
}

void TileCache::CountMisses(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.misses += n;
}

void TileCache::CountPrefetchIssued(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.prefetch_issued += n;
}

void TileCache::CountPrefetchWasted(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.prefetch_wasted += n;
}

void TileCache::InvalidateEntryLocked(Entry* entry) {
  ++stats_.invalidations;
  if (entry->pins == 0) {
    RemoveLocked(entry, /*count_eviction=*/false);
    return;
  }
  // Pinned: unlink from the index and replacement order so no future probe
  // sees the poisoned data (and the key is free for a fresh insert), but
  // keep the storage alive for the handles already holding it.
  order_.erase(entry->pos);
  // A zombie can never be hit, so a still-speculative one is wasted now.
  if (entry->speculative) {
    entry->speculative = false;
    ++stats_.prefetch_wasted;
  }
  entry->zombie = true;
  auto it = entries_.find(entry->key);
  TILECOMP_DCHECK(it != entries_.end());
  zombies_.push_back(std::move(it->second));
  entries_.erase(it);
}

bool TileCache::Invalidate(codec::ColumnId column_id, int64_t tile_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindLocked(column_id, tile_id);
  if (entry == nullptr) return false;
  InvalidateEntryLocked(entry);
  return true;
}

bool TileCache::InvalidateStale(codec::ColumnId column_id, int64_t tile_id,
                                uint64_t min_generation) {
  std::lock_guard<std::mutex> lock(mu_);
  // Raise the insert floor first: from this point no decode tagged with an
  // older generation can become resident, closing the re-insert race that
  // plain Invalidate leaves open.
  uint64_t& floor = insert_floors_[MakeKey(column_id, tile_id)];
  floor = std::max(floor, min_generation);
  Entry* entry = FindLocked(column_id, tile_id);
  if (entry == nullptr || entry->generation >= min_generation) return false;
  InvalidateEntryLocked(entry);
  return true;
}

void TileCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = order_.begin();
  while (it != order_.end()) {
    Entry* entry = *it;
    ++it;
    if (entry->pins == 0) EvictLocked(entry);
  }
}

TileCache::Stats TileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  snapshot.entries = entries_.size();
  uint64_t speculative = 0;
  for (const Entry* entry : order_) {
    if (entry->speculative) ++speculative;
  }
  snapshot.speculative_entries = speculative;
  snapshot.ghost_recency_entries = ghost_recency_.keys.size();
  snapshot.ghost_frequency_entries = ghost_frequency_.keys.size();
  return snapshot;
}

double TileCache::frequency_weight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frequency_weight_;
}

}  // namespace tilecomp::serve
