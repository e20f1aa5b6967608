#include "core/plan_cache.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/query_digest.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace seq {

namespace {

struct PlanCacheMetrics {
  MetricCounter& hits;
  MetricCounter& misses;
  MetricCounter& inserts;
  MetricCounter& evictions;
  MetricCounter& invalidations;
  MetricCounter& recost_fallbacks;
};

PlanCacheMetrics& Metrics() {
  static PlanCacheMetrics* m = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return new PlanCacheMetrics{
        reg.Counter("engine.plan_cache.hits"),
        reg.Counter("engine.plan_cache.misses"),
        reg.Counter("engine.plan_cache.inserts"),
        reg.Counter("engine.plan_cache.evictions"),
        reg.Counter("engine.plan_cache.invalidations"),
        reg.Counter("engine.plan_cache.recost_fallbacks"),
    };
  }();
  return *m;
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || v <= 0) return fallback;
  return static_cast<size_t>(v);
}

}  // namespace

PlanCache::PlanCache(size_t max_entries, size_t max_bytes)
    : max_entries_(std::max<size_t>(max_entries, kShards)),
      max_bytes_(std::max<size_t>(max_bytes, 1)) {}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  return shards_[Fnv1a64(key) % kShards];
}

PlanCacheEntryPtr PlanCache::Lookup(const std::string& key) {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      it->second.entry->hits.fetch_add(1, std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      Metrics().hits.Add();
      return it->second.entry;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().misses.Add();
  return nullptr;
}

void PlanCache::EvictLocked(Shard& shard) {
  const size_t shard_entries = std::max<size_t>(max_entries_ / kShards, 1);
  const size_t shard_bytes = std::max<size_t>(max_bytes_ / kShards, 1);
  while (!shard.lru.empty() &&
         (shard.map.size() > shard_entries || shard.bytes > shard_bytes)) {
    const std::string& victim = shard.lru.back();
    auto it = shard.map.find(victim);
    if (it != shard.map.end()) {
      shard.bytes -= std::min(shard.bytes, it->second.entry->bytes);
      shard.map.erase(it);
    }
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    Metrics().evictions.Add();
  }
}

void PlanCache::Insert(const std::string& key, PlanCacheEntryPtr entry) {
  if (!enabled() || entry == nullptr) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= std::min(shard.bytes, it->second.entry->bytes);
    shard.bytes += entry->bytes;
    it->second.entry = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  } else {
    shard.lru.push_front(key);
    shard.bytes += entry->bytes;
    shard.map.emplace(key, Shard::Slot{std::move(entry), shard.lru.begin()});
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  Metrics().inserts.Add();
  EvictLocked(shard);
}

void PlanCache::CountRecostFallback() {
  recost_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  Metrics().recost_fallbacks.Add();
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

void PlanCache::InvalidateEngine(uint64_t engine_id) {
  uint64_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->second.entry->engine_id == engine_id) {
        shard.bytes -= std::min(shard.bytes, it->second.entry->bytes);
        shard.lru.erase(it->second.lru_it);
        it = shard.map.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    Metrics().invalidations.Add(static_cast<int64_t>(dropped));
  }
}

void PlanCache::set_enabled(bool enabled) {
  const bool was = enabled_.exchange(enabled, std::memory_order_relaxed);
  if (was && !enabled) Clear();
}

PlanCacheStats PlanCache::Stats() const {
  PlanCacheStats out;
  out.enabled = enabled();
  out.max_entries = max_entries_;
  out.max_bytes = max_bytes_;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.entries += shard.map.size();
    out.bytes += shard.bytes;
  }
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.inserts = inserts_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.recost_fallbacks = recost_fallbacks_.load(std::memory_order_relaxed);
  return out;
}

std::string PlanCache::ToString(size_t limit) const {
  const PlanCacheStats s = Stats();
  std::ostringstream oss;
  oss << "plan cache: " << (s.enabled ? "on" : "off") << ", " << s.entries
      << " entr" << (s.entries == 1 ? "y" : "ies") << ", " << s.bytes
      << " bytes (caps: " << s.max_entries << " entries, " << s.max_bytes
      << " bytes)\n";
  const uint64_t lookups = s.hits + s.misses;
  oss << "  hits=" << s.hits << " misses=" << s.misses << " (hit-rate ";
  if (lookups > 0) {
    oss << FormatDouble(100.0 * static_cast<double>(s.hits) /
                        static_cast<double>(lookups))
        << "%";
  } else {
    oss << "n/a";
  }
  oss << ")\n";
  oss << "  inserts=" << s.inserts << " evictions=" << s.evictions
      << " invalidations=" << s.invalidations
      << " recost_fallbacks=" << s.recost_fallbacks << "\n";
  // Hottest entries across all shards.
  struct Row {
    uint64_t hits;
    std::string display;
  };
  std::vector<Row> rows;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, slot] : shard.map) {
      rows.push_back(Row{slot.entry->hits.load(std::memory_order_relaxed),
                         slot.entry->display});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.hits != b.hits) return a.hits > b.hits;
    return a.display < b.display;
  });
  const size_t shown = std::min(limit, rows.size());
  for (size_t i = 0; i < shown; ++i) {
    oss << "  [" << rows[i].hits << "x] " << rows[i].display << "\n";
  }
  if (rows.size() > shown) {
    oss << "  ... (" << rows.size() << " entries total)\n";
  }
  return oss.str();
}

PlanCache& PlanCache::Global() {
  static PlanCache* cache = [] {
    auto* c = new PlanCache(
        EnvSize("SEQ_PLAN_CACHE_ENTRIES", kDefaultMaxEntries),
        EnvSize("SEQ_PLAN_CACHE_BYTES", kDefaultMaxBytes));
    // SEQ_PLAN_CACHE=0/off/false starts the cache disabled; anything else
    // (including unset) leaves it on. This flag is the only switch for the
    // whole process: `.plancache on|off` flips it, and
    // ExecOptions::use_plan_cache only opts single queries out.
    if (const char* env = std::getenv("SEQ_PLAN_CACHE")) {
      const std::string_view v(env);
      if (v == "0" || v == "off" || v == "false") c->set_enabled(false);
    }
    return c;
  }();
  return *cache;
}

uint64_t PlanCache::NextEngineId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace seq
