// Decompressed-tile cache for the query-serving layer.
//
// The paper's schemes make decompression cheap enough to run inline with a
// query, but a serving workload re-reads the same hot tiles query after
// query. TileCache keeps recently decompressed 512-value tiles resident in
// (modeled) device memory under a byte budget, keyed by (column, tile).
// A hit serves the decoded values without re-running the decode; a miss
// decodes as usual and inserts the result, evicting cold unpinned tiles to
// stay under budget.
//
// Two insert classes share the budget:
//   * demand inserts (Insert) — the query path; entries start hot and
//     pinned for the duration of the inserting query;
//   * speculative inserts (InsertSpeculative) — the prefetcher's staging
//     path; entries start cold, unpinned and flagged speculative until the
//     first demand hit promotes them. A speculative entry that is evicted
//     (or refused) before any hit is counted as wasted prefetch work.
//
// Thread safety: every public method is safe to call concurrently — the
// serving layer calls Lookup/Insert from kernel bodies, which the simulator
// runs on many host threads at once. PinnedTile handles keep an entry's
// storage alive and block its eviction until released.
#ifndef TILECOMP_SERVE_TILE_CACHE_H_
#define TILECOMP_SERVE_TILE_CACHE_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "codec/column_id.h"
#include "common/macros.h"
#include "fault/fault.h"

namespace tilecomp::serve {

// Replacement policy for unpinned entries.
//   kLru       — evict the least-recently-used entry.
//   kCostAware — ARC-style adaptive cost ranking: victims come from a window
//                of the coldest unpinned entries, ranked by
//                (decode-cost estimate x encoded bytes) / entry size scaled
//                by an adaptive recency/frequency mix, so cheap-to-rebuild
//                tiles go first; speculative entries that never saw a demand
//                hit are first in line regardless of cost. Two ghost lists
//                (B1: evicted without reuse, B2: evicted after reuse) track
//                recently evicted keys; a miss on a ghosted key shifts the
//                recency/frequency weight toward the list that was wrong.
enum class EvictionPolicy { kLru, kCostAware };

const char* EvictionPolicyName(EvictionPolicy policy);

// Rebuild-cost hints attached to an entry at insert time, consumed by the
// kCostAware victim ranking. `decode_cost` is the inserting path's measured
// cost proxy for re-decoding this tile (sim::BlockCostProxy delta around the
// decode, or a per-tile share of a pipeline run); `encoded_bytes` is the
// tile's share of the column's compressed footprint. Defaults rank the
// entry cheapest-to-rebuild (evicted first once cold).
struct TileCost {
  uint64_t decode_cost = 1;
  uint64_t encoded_bytes = 0;
};

// Outcome of a speculative insert.
enum class SpeculativeInsert {
  kInserted,         // staged; counted against the budget as a cold entry
  kAlreadyResident,  // demand (or a prior prefetch) beat us: counted late
  kRefused,          // no room / injected fault: the decode was wasted
};

// Private cache-entry record (defined in tile_cache.cc).
struct TileCacheEntry;

class TileCache {
 public:
  // Monotonic counters plus a point-in-time usage snapshot.
  struct Stats {
    // Demand hits on demand-inserted tiles.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
    // Entries dropped through Invalidate (poisoned data, never served
    // again); counted separately from capacity evictions.
    uint64_t invalidations = 0;
    // Insert calls refused because eviction could not make room (entry
    // larger than the budget, or every resident entry was pinned).
    uint64_t insert_failures = 0;
    // Inserts refused by the generation floor: a demand-load raced a
    // mutation and decoded from a pre-mutation extent (see InvalidateStale).
    // Counted separately from insert_failures — these are correctness
    // refusals, not capacity ones.
    uint64_t stale_refused = 0;
    // Encoded bytes that hits avoided re-reading. Credited by callers
    // (CreditSaved) only for hits actually served — a hit whose data is
    // then discarded (e.g. an injected poison) must not be credited.
    uint64_t saved_bytes = 0;
    // Demand hits on tiles the prefetcher staged (separate from `hits` so
    // the serving report can attribute cache luck to speculation).
    uint64_t prefetch_hits = 0;
    // Speculative decodes launched (counted by the prefetcher via
    // CountPrefetchIssued — faulted decodes never reach an insert call).
    uint64_t prefetch_issued = 0;
    // First demand hit on a still-speculative entry (promotes it).
    uint64_t prefetch_useful = 0;
    // Speculative work that can never pay off: refused inserts, faulted
    // speculative decodes, and speculative entries evicted before any hit.
    uint64_t prefetch_wasted = 0;
    // Speculative inserts that found the tile already resident.
    uint64_t prefetch_late = 0;
    uint64_t bytes_in_use = 0;
    uint64_t entries = 0;
    // Snapshot: resident entries still awaiting their first demand hit.
    uint64_t speculative_entries = 0;
    // Snapshot: ghost-list occupancy (kCostAware only).
    uint64_t ghost_recency_entries = 0;
    uint64_t ghost_frequency_entries = 0;

    uint64_t accesses() const { return hits + prefetch_hits + misses; }
    double hit_rate() const {
      return accesses() == 0 ? 0.0
                             : static_cast<double>(hits + prefetch_hits) /
                                   static_cast<double>(accesses());
    }
    double prefetch_wasted_rate() const {
      return prefetch_issued == 0 ? 0.0
                                  : static_cast<double>(prefetch_wasted) /
                                        static_cast<double>(prefetch_issued);
    }
  };

  // Extra detail a Lookup hit reports back to the loader, so the kernel can
  // account a prefetch hit apart from a demand hit.
  struct LookupInfo {
    bool prefetch_hit = false;  // entry was staged by the prefetcher
    bool promoted = false;      // this hit was the entry's first (useful)
  };

  explicit TileCache(uint64_t budget_bytes,
                     EvictionPolicy policy = EvictionPolicy::kLru);
  ~TileCache();

  // The cache's (column, tile) -> map-key packing, exposed so tests and the
  // fault plan key tiles identically. CHECK-fails on a tile id outside the
  // 32-bit range (an out-of-range id would alias another column's key).
  static uint64_t MakeKey(codec::ColumnId column_id, int64_t tile_id);

  TILECOMP_DISALLOW_COPY_AND_ASSIGN(TileCache);

  // Pin handle returned by Lookup/Insert. While any handle to an entry is
  // alive the entry cannot be evicted and its data pointer stays valid.
  // Movable, not copyable; the default-constructed handle is empty.
  class PinnedTile {
   public:
    PinnedTile() = default;
    PinnedTile(PinnedTile&& other) noexcept { *this = std::move(other); }
    PinnedTile& operator=(PinnedTile&& other) noexcept;
    ~PinnedTile() { Release(); }

    PinnedTile(const PinnedTile&) = delete;
    PinnedTile& operator=(const PinnedTile&) = delete;

    bool valid() const { return entry_ != nullptr; }
    const uint32_t* data() const;
    // Number of valid values in the tile (<= 512 for a tail tile).
    uint32_t count() const;

    // Drop the pin early (destructor also does this).
    void Release();

   private:
    friend class TileCache;
    PinnedTile(TileCache* cache, TileCacheEntry* entry)
        : cache_(cache), entry_(entry) {}

    TileCache* cache_ = nullptr;
    TileCacheEntry* entry_ = nullptr;
  };

  // Probe for (column_id, tile_id). On hit: counts a hit (under
  // `prefetch_hits` when the entry was staged speculatively), credits
  // `saved_encoded_bytes` to the saved-bytes counter, promotes a
  // still-speculative entry (counting it useful), touches the entry for the
  // replacement policy, and returns a pinned handle; `info` (optional)
  // reports the prefetch attribution. On miss: counts a miss (adapting the
  // kCostAware ghost weights) and returns an empty handle.
  //
  // Callers that may discard the hit after further checks (e.g. the
  // loader's poison draw) should pass saved_encoded_bytes = 0 here and
  // credit via CreditSaved once the hit is actually served.
  PinnedTile Lookup(codec::ColumnId column_id, int64_t tile_id,
                    uint64_t saved_encoded_bytes = 0,
                    LookupInfo* info = nullptr);

  // Presence probe with no counter or replacement-order side effects.
  bool Contains(codec::ColumnId column_id, int64_t tile_id) const;

  // Pin (column_id, tile_id) if resident, with no counter or
  // replacement-order side effects — used by the column-granularity load
  // path to hold a column's tiles across a query without double-counting
  // the per-tile accesses its query kernel will record.
  PinnedTile Peek(codec::ColumnId column_id, int64_t tile_id);

  // Credit `bytes` of avoided reads without a Lookup — used when a whole
  // column's decompress launch is skipped, and by the loader once a hit has
  // cleared its poison check (see Lookup).
  void CreditSaved(uint64_t bytes);

  // Insert a decompressed tile (demand path). Evicts unpinned entries in
  // policy order until the entry fits; never exceeds the budget. If room
  // cannot be made (tile larger than the budget, or every candidate is
  // pinned) the insert is refused: counts an insert failure and returns an
  // empty handle. If the key is already resident (another thread inserted
  // it first) the existing entry is pinned — and, if still speculative,
  // promoted without counting a prefetch hit — and returned. `evictions`
  // (optional) receives the number of entries this call evicted. `cost`
  // feeds the kCostAware victim ranking.
  // `generation` tags the entry with the mutable-column tile generation the
  // decode observed (0 for immutable columns, which never invalidate); an
  // insert whose generation is below the key's floor (set by
  // InvalidateStale) is refused — the decode raced a mutation and read the
  // pre-mutation extent.
  PinnedTile Insert(codec::ColumnId column_id, int64_t tile_id,
                    const uint32_t* values, uint32_t count,
                    uint64_t* evictions = nullptr, TileCost cost = TileCost(),
                    uint64_t generation = 0);

  // Insert a speculatively decoded tile (prefetch path). The entry is
  // staged unpinned at the warm end of the replacement order — it was
  // predicted for the next query, so it gets one replacement cycle to prove
  // itself (staging cold would let speculation churn on itself the moment
  // the cache is full) — flagged speculative until its first demand hit.
  // Low priority is enforced by the kCostAware victim scan preferring
  // never-hit speculative entries, and by the wasted accounting when an
  // unused entry ages out. Never hands out a pin. Counts prefetch_late when
  // the key is already resident and prefetch_wasted when the insert is
  // refused.
  SpeculativeInsert InsertSpeculative(codec::ColumnId column_id,
                                      int64_t tile_id, const uint32_t* values,
                                      uint32_t count, TileCost cost = TileCost(),
                                      uint64_t generation = 0);

  // Count `n` misses without probing — used by the column-granularity load
  // path, which decides hit/miss per column but accounts per tile.
  void CountMisses(uint64_t n);

  // Prefetcher-side counter feeds: speculative decodes launched, and
  // speculative decodes wasted before reaching an insert (injected faults).
  void CountPrefetchIssued(uint64_t n);
  void CountPrefetchWasted(uint64_t n);

  // Drop (column_id, tile_id) so it can never be served again — the
  // poisoned-tile recovery path. Returns false if the key is not resident.
  // An unpinned entry is freed immediately; a pinned entry is unlinked from
  // the index (Lookup/Contains/Peek no longer see it, and the key can be
  // re-inserted with fresh data) but its storage stays alive until the last
  // PinnedTile releases, so existing handles never dangle. Counted under
  // `invalidations`, not `evictions`.
  bool Invalidate(codec::ColumnId column_id, int64_t tile_id);

  // Generation-mismatch invalidation, the mutable-column staleness barrier.
  // Plain Invalidate closes the resident window but leaves a race open: a
  // demand-load that decoded the pre-mutation extent can re-insert the
  // stale tile AFTER the invalidation ran. InvalidateStale additionally
  // raises a persistent per-key insert floor to `min_generation`, so any
  // later Insert/InsertSpeculative tagged with an older generation is
  // refused (counted under stale_refused). A resident entry whose
  // generation is already >= min_generation is left alone. Returns true if
  // a resident entry was dropped. Called by the serving layer's
  // MutableColumn::Listener with the column lock held (lock order: column
  // -> cache, never the reverse).
  bool InvalidateStale(codec::ColumnId column_id, int64_t tile_id,
                       uint64_t min_generation);

  // Attach a fault plan (not owned; nullptr to detach). When set, Insert
  // and InsertSpeculative consult the kDeviceAlloc and kCacheInsert sites
  // (keyed by the tile, so concurrent blocks draw deterministically) and
  // refuse the insert on an injected fault, counting an insert failure —
  // exercising callers' cache-miss fallback path. A refused speculative
  // insert is dropped silently (never cached) and counted wasted.
  void set_fault_plan(fault::FaultPlan* plan) { fault_plan_ = plan; }

  // Evict everything unpinned. Pinned entries stay resident.
  void Clear();

  Stats stats() const;
  uint64_t budget_bytes() const { return budget_bytes_; }
  EvictionPolicy policy() const { return policy_; }
  // kCostAware adaptation state: the frequency weight p in [0, 1] (0.5 at
  // start; a ghost hit on a reused victim raises it, on a once-used victim
  // lowers it). Exposed for tests and telemetry.
  double frequency_weight() const;

 private:
  using Entry = TileCacheEntry;

  // Bounded FIFO set of recently evicted keys (one per ARC side).
  struct GhostList {
    std::deque<uint64_t> fifo;
    std::unordered_set<uint64_t> keys;
  };

  // All private helpers require `mu_` to be held.
  Entry* FindLocked(codec::ColumnId column_id, int64_t tile_id);
  void TouchLocked(Entry* entry);
  // Evict unpinned entries in policy order until `needed` bytes fit in the
  // budget. Returns false (evicting what it could) if it cannot.
  bool MakeRoomLocked(uint64_t needed, uint64_t* evictions);
  // The kCostAware victim: the coldest never-hit speculative entry if any,
  // else the lowest-ranked of a window of cold unpinned entries. nullptr
  // when every entry is pinned.
  Entry* PickCostAwareVictimLocked();
  // Record an eviction in the ghost lists (kCostAware capacity evictions
  // only): B1 for entries evicted without any demand hit, B2 for the rest.
  void GhostRecordLocked(Entry* entry);
  void GhostInsertLocked(GhostList* list, uint64_t key);
  // Ghost adaptation on a demand miss (kCostAware): a miss on a B1 key
  // shifts the weight toward recency, on a B2 key toward frequency.
  void GhostMissLocked(uint64_t key);
  // Drop `entry` as Invalidate does: unpinned entries are freed, pinned
  // ones become zombies. Counts under `invalidations`.
  void InvalidateEntryLocked(Entry* entry);
  // Unlink an unpinned entry from the index and replacement order and free
  // it. Capacity evictions count under `evictions`; invalidations do not.
  // A still-speculative entry leaving residency counts as wasted prefetch.
  void RemoveLocked(Entry* entry, bool count_eviction);
  void EvictLocked(Entry* entry) { RemoveLocked(entry, true); }
  void UnpinLocked(Entry* entry);

  const uint64_t budget_bytes_;
  const EvictionPolicy policy_;
  fault::FaultPlan* fault_plan_ = nullptr;

  mutable std::mutex mu_;
  // Keyed by (column_id << 32 is not enough for tile ids) — see MakeKey in
  // the .cc. unique_ptr gives Entry pointer stability across rehashes.
  std::unordered_map<uint64_t, std::unique_ptr<Entry>> entries_;
  // Replacement order: front = coldest, back = hottest.
  std::list<Entry*> order_;
  // Invalidated-while-pinned entries: out of the index and replacement
  // order, kept alive (and counted in bytes_in_use) until their last pin
  // releases.
  std::vector<std::unique_ptr<Entry>> zombies_;
  // kCostAware ghost lists, each capped at roughly one budget's worth of
  // tile keys — the ARC rule of thumb: remembering more history than the
  // cache could ever hold stops being evidence about sizing.
  GhostList ghost_recency_;    // B1: evicted with zero demand hits
  GhostList ghost_frequency_;  // B2: evicted after at least one demand hit
  // Per-key minimum acceptable insert generation (see InvalidateStale).
  // Grows one slot per mutated (column, tile) key — bounded by the mutable
  // working set, not by traffic.
  std::unordered_map<uint64_t, uint64_t> insert_floors_;
  const uint64_t ghost_capacity_;
  // Frequency weight p in [0, 1] for the kCostAware hotness mix.
  double frequency_weight_ = 0.5;
  Stats stats_;
};

}  // namespace tilecomp::serve

#endif  // TILECOMP_SERVE_TILE_CACHE_H_
