#ifndef SEQ_CORE_PLAN_CACHE_H_
#define SEQ_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "optimizer/physical_plan.h"
#include "optimizer/plan_template.h"
#include "types/value.h"

namespace seq {

/// Re-cost guard threshold: a cached plan is re-optimized when the bound
/// literals move any captured predicate's estimated selectivity by more
/// than this ratio (either direction) from what the planner assumed.
inline constexpr double kPlanCacheRecostThreshold = 4.0;

/// One cached optimized plan template. Immutable after insert (the hit
/// counter is the only mutable field); shared by reference with every
/// concurrent reader, so a hit never copies the plan tree — binding shares
/// all non-parameterized nodes with the template.
struct PlanCacheEntry {
  /// The optimized plan with the creating query's literals still bound
  /// (tagged with param indices when `bindable`).
  PhysicalPlan plan;
  /// Types of the extracted parameters, in tag order. A hit whose literal
  /// types differ is treated as a miss (defense in depth — the signature
  /// already encodes types).
  std::vector<TypeId> param_types;
  /// True when the plan mentions every extracted parameter, so new
  /// literals can be rebound. False when a rewrite dropped a literal from
  /// the plan — then the plan is only reused when `bound_values` match the
  /// incoming literals exactly (the dropped literal's value shaped the
  /// plan).
  bool bindable = true;
  /// The creating query's literal values; compared on hit when !bindable.
  std::vector<Value> bound_values;
  /// The creating query's explicit point positions. The signature only
  /// hashes the position list; this verbatim copy is compared on every hit
  /// so a hash collision can never execute the wrong positions.
  std::vector<Position> positions;
  /// Literal-sensitive costing assumptions for the re-cost guard.
  std::vector<RecostCheck> recost_checks;
  /// Owning engine (plans reference that engine's catalog stores).
  uint64_t engine_id = 0;
  /// Normalized display text for stats output.
  std::string display;
  /// Estimated footprint (key + plan tree), charged against the byte cap.
  size_t bytes = 0;

  mutable std::atomic<uint64_t> hits{0};
};

using PlanCacheEntryPtr = std::shared_ptr<const PlanCacheEntry>;

/// Counters and occupancy snapshot for `.plancache stats`, tests and the
/// metrics exporters.
struct PlanCacheStats {
  bool enabled = true;
  size_t entries = 0;
  size_t bytes = 0;
  size_t max_entries = 0;
  size_t max_bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t recost_fallbacks = 0;
};

/// The process-wide parameterized plan cache (docs/execution.md, "plan
/// cache"): optimized physical-plan templates keyed on query shape
/// signature + catalog version + planning-relevant options + engine
/// identity. Sharded LRU under per-shard mutexes; entries are immutable
/// shared_ptrs, so lookups hold a lock only for the map probe and LRU
/// splice, never during binding or execution. Capacity is bounded by both
/// entry count and estimated bytes (SEQ_PLAN_CACHE_ENTRIES /
/// SEQ_PLAN_CACHE_BYTES; SEQ_PLAN_CACHE=0 starts it disabled).
class PlanCache {
 public:
  static constexpr size_t kShards = 8;
  static constexpr size_t kDefaultMaxEntries = 256;
  static constexpr size_t kDefaultMaxBytes = 64u << 20;

  PlanCache(size_t max_entries, size_t max_bytes);

  /// Returns the entry under `key` (touching its LRU position) or null.
  /// Counts a hit or miss.
  PlanCacheEntryPtr Lookup(const std::string& key);

  /// Inserts or replaces the entry under `key`, evicting LRU entries as
  /// needed to respect the caps. No-op when the cache is disabled.
  void Insert(const std::string& key, PlanCacheEntryPtr entry);

  /// Records that a hit was discarded by the re-cost guard (the caller
  /// then re-optimizes and usually Inserts a refreshed entry).
  void CountRecostFallback();

  /// Maintenance ------------------------------------------------------------
  /// Drops every entry. Counters are kept.
  void Clear();
  /// Drops every entry belonging to `engine_id` — called when an engine
  /// mutates its catalog (register/view/materialize) or is destroyed.
  /// Counts one invalidation per dropped plan entry.
  void InvalidateEngine(uint64_t engine_id);

  /// Runtime switch (seqsh `.plancache on|off`). Disabling also clears, so
  /// re-enabling starts cold.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  PlanCacheStats Stats() const;
  /// Human-readable summary plus the hottest entries, for `.plancache
  /// stats`.
  std::string ToString(size_t limit = 10) const;

  /// The process-global cache every engine shares. Capacity and the
  /// initial enabled state come from SEQ_PLAN_CACHE /
  /// SEQ_PLAN_CACHE_ENTRIES / SEQ_PLAN_CACHE_BYTES once at first use.
  static PlanCache& Global();

  /// Fresh id for an engine instance (plan keys embed it so two engines'
  /// plans can never collide, and invalidation is per engine).
  static uint64_t NextEngineId();

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::string> lru;
    struct Slot {
      PlanCacheEntryPtr entry;
      std::list<std::string>::iterator lru_it;
    };
    std::unordered_map<std::string, Slot> map;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);
  /// Evicts from `shard` until it fits the per-shard caps. Caller holds
  /// the shard mutex.
  void EvictLocked(Shard& shard);

  const size_t max_entries_;
  const size_t max_bytes_;
  std::atomic<bool> enabled_{true};

  Shard shards_[kShards];

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> recost_fallbacks_{0};
};

/// RAII engine identity for plan-cache keys. Every Engine owns one; its
/// value prefixes the engine's cache keys so two engines' plans can never
/// collide, and the destructor retires the engine's entries (they hold
/// shared_ptrs into the engine's catalog, so retirement is hygiene, not a
/// dangling-pointer fix). Copying an engine gives the copy a FRESH id —
/// the copy's catalog can diverge; moving transfers the id (the plans
/// stay valid for the moved-to engine) and re-arms the source with a
/// fresh, entry-less id.
class PlanCacheId {
 public:
  PlanCacheId() : id_(PlanCache::NextEngineId()) {}
  PlanCacheId(const PlanCacheId&) : id_(PlanCache::NextEngineId()) {}
  PlanCacheId& operator=(const PlanCacheId&) { return *this; }
  PlanCacheId(PlanCacheId&& other) noexcept : id_(other.id_) {
    other.id_ = PlanCache::NextEngineId();
  }
  PlanCacheId& operator=(PlanCacheId&& other) noexcept {
    if (this != &other) {
      PlanCache::Global().InvalidateEngine(id_);
      id_ = other.id_;
      other.id_ = PlanCache::NextEngineId();
    }
    return *this;
  }
  ~PlanCacheId() { PlanCache::Global().InvalidateEngine(id_); }

  uint64_t value() const { return id_; }

 private:
  uint64_t id_;
};

}  // namespace seq

#endif  // SEQ_CORE_PLAN_CACHE_H_
