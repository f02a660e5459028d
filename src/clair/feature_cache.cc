#include "src/clair/feature_cache.h"

#include <cstring>

#include "src/support/fault_injection.h"

namespace clair {
namespace {

// Approximate per-entry bookkeeping overhead (hash node, order slot,
// checksum + size fields). Precision does not matter — the cap is a memory
// guard, not an allocator — but the estimate must be stable so eviction is
// deterministic in insertion order.
constexpr uint64_t kEntryOverhead = 64;

uint64_t EstimateFeatureBytes(const metrics::FeatureVector& features) {
  uint64_t bytes = kEntryOverhead;
  for (const auto& [name, value] : features.values()) {
    (void)value;
    bytes += name.size() + sizeof(double) + 32;  // Map-node overhead.
  }
  return bytes;
}

uint64_t EstimateRowBytes(const std::vector<double>& row) {
  return kEntryOverhead + row.size() * sizeof(double);
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes, uint64_t seed) {
  uint64_t hash = seed;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

uint64_t HashSourceFiles(const std::vector<metrics::SourceFile>& files,
                         uint64_t options_fingerprint) {
  uint64_t hash = Fnv1a64("clair.feature_cache.v1");
  hash ^= options_fingerprint;
  hash *= 0x100000001b3ULL;
  for (const auto& file : files) {
    hash = Fnv1a64(file.path, hash);
    hash = (hash ^ static_cast<uint64_t>(file.language)) * 0x100000001b3ULL;
    hash = Fnv1a64(file.text, hash);
    // Separator so (path="a", text="bc") and (path="ab", text="c") differ.
    hash = (hash ^ 0x1fULL) * 0x100000001b3ULL;
  }
  return hash;
}

uint64_t ChecksumFeatures(const metrics::FeatureVector& features) {
  uint64_t hash = Fnv1a64("clair.feature_cache.row.v1");
  for (const auto& [name, value] : features.values()) {
    hash = Fnv1a64(name, hash);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    hash = (hash ^ bits) * 0x100000001b3ULL;
  }
  return hash;
}

uint64_t ChecksumRow(const std::vector<double>& row) {
  uint64_t hash = Fnv1a64("clair.row_cache.row.v1");
  for (const double value : row) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    hash = (hash ^ bits) * 0x100000001b3ULL;
  }
  return hash;
}

bool FeatureCache::Lookup(uint64_t key, metrics::FeatureVector* out) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Integrity guard: a row that no longer matches its insert-time
      // checksum (bit rot, a bug elsewhere scribbling on the map, or an
      // injected cache fault simulating either) must not be served — the
      // caller recomputes instead of training on a corrupt row.
      const bool injected = support::FaultInjector::Global().ShouldFail(
          support::FaultSite::kCache, key);
      if (!injected && ChecksumFeatures(it->second.features) == it->second.checksum) {
        *out = it->second.features;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      bytes_ -= it->second.bytes;
      entries_.erase(it);
      integrity_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void FeatureCache::Insert(uint64_t key, const metrics::FeatureVector& features) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t size = EstimateFeatureBytes(features);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    it->second = Entry{features, ChecksumFeatures(features), size};
  } else {
    entries_[key] = Entry{features, ChecksumFeatures(features), size};
    order_.push_back(key);
  }
  bytes_ += size;
  EvictOverCapLocked();
}

void FeatureCache::EvictOverCapLocked() {
  while (entries_.size() > max_entries_ ||
         (max_bytes_ != 0 && bytes_ > max_bytes_ && !entries_.empty())) {
    if (order_.empty()) {
      return;  // Only stale slots remain; nothing evictable.
    }
    const uint64_t victim = order_.front();
    order_.pop_front();
    const auto it = entries_.find(victim);
    if (it == entries_.end()) {
      continue;  // Stale slot: the entry was erased by an integrity reject.
    }
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

FeatureCacheStats FeatureCache::stats() const {
  FeatureCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.integrity_rejects = integrity_rejects_.load(std::memory_order_relaxed);
  stats.coalesced_fills = coalesced_fills_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.entries = entries_.size();
    stats.bytes = bytes_;
  }
  return stats;
}

bool FeatureCache::CorruptEntryForTest(uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  it->second.features.Set("corrupted.by.test",
                          it->second.features.Get("corrupted.by.test") + 1.0);
  return true;
}

bool RowCache::Lookup(uint64_t key, std::vector<double>* out) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      const bool injected = support::FaultInjector::Global().ShouldFail(
          support::FaultSite::kCache, key);
      if (!injected && ChecksumRow(it->second.row) == it->second.checksum) {
        *out = it->second.row;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      bytes_ -= it->second.bytes;
      entries_.erase(it);
      integrity_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void RowCache::Insert(uint64_t key, const std::vector<double>& row) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t size = EstimateRowBytes(row);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    it->second = Entry{row, ChecksumRow(row), size};
  } else {
    entries_[key] = Entry{row, ChecksumRow(row), size};
    order_.push_back(key);
  }
  bytes_ += size;
  EvictOverCapLocked();
}

void RowCache::EvictOverCapLocked() {
  while (entries_.size() > max_entries_ ||
         (max_bytes_ != 0 && bytes_ > max_bytes_ && !entries_.empty())) {
    if (order_.empty()) {
      return;
    }
    const uint64_t victim = order_.front();
    order_.pop_front();
    const auto it = entries_.find(victim);
    if (it == entries_.end()) {
      continue;
    }
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

FeatureCacheStats RowCache::stats() const {
  FeatureCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.integrity_rejects = integrity_rejects_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.entries = entries_.size();
    stats.bytes = bytes_;
  }
  return stats;
}

}  // namespace clair
