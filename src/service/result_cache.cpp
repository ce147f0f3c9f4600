#include "service/result_cache.hpp"

#include <mutex>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pcmax {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  PCMAX_REQUIRE(capacity >= 1, "cache capacity must be at least 1");
}

std::optional<CacheEntry> ResultCache::lookup(const Fingerprint& key,
                                              const Instance& canonical,
                                              bool count_miss) {
  obs::Metrics* metrics = obs::current();
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  // 128-bit fingerprint collisions are astronomically unlikely, but
  // verified so they can only ever cost a recompute, not a wrong answer.
  const bool collision =
      it != map_.end() && it->second->second.canonical != canonical;
  if (it == map_.end() || collision) {
    if (count_miss) {
      if (collision) ++stats_.collisions;
      ++stats_.misses;
      if (metrics != nullptr) {
        metrics->add(0, obs::Counter::kServiceCacheMisses);
      }
    }
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  if (metrics != nullptr) metrics->add(0, obs::Counter::kServiceCacheHits);
  return it->second->second;
}

void ResultCache::insert(const Fingerprint& key, CacheEntry entry) {
  obs::Metrics* metrics = obs::current();
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh: a concurrent worker solved the same request first. Keep the
    // existing entry (both are valid results for the key).
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    if (metrics != nullptr) {
      metrics->add(0, obs::Counter::kServiceCacheEvictions);
    }
  }
  lru_.emplace_front(key, std::move(entry));
  map_.emplace(key, lru_.begin());
}

CacheStats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  CacheStats snapshot = stats_;
  snapshot.size = lru_.size();
  return snapshot;
}

}  // namespace pcmax
