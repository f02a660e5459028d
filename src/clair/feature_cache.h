// Content-addressed caches of extracted feature rows.
//
// Feature extraction is a pure function of (source text, extraction
// options), so repeated evaluations of identical inputs — version deltas
// where most files are unchanged between runs, library comparisons rerun
// across sessions, CI gates re-evaluating an unchanged baseline — can skip
// the full static-analysis battery. Keys are 64-bit FNV-1a digests of every
// file's path, language, and text plus a fingerprint of the extraction
// options; values are the finished per-app FeatureVector. The cache is
// thread-safe (the testbed sweep runs one task per app on the parallel
// runtime) and exposes hit/miss counters for the throughput bench.
//
// Two granularities share the machinery:
//   - FeatureCache: FeatureVector values — whole-app rows (the L1 the
//     testbed consults before extracting) and per-file metric vectors.
//   - RowCache: flat vector<double> payloads — per-function analysis
//     results (dataflow, intervals, symexec entries) keyed by normalized
//     function-body token hashes, and fixed-schema function-rank rows.
//
// Both bound memory with byte-size accounting plus deterministic FIFO
// eviction (insertion order; evictions are surfaced in stats so unbounded
// growth of the function-granular tier is visible, never silent).
#ifndef SRC_CLAIR_FEATURE_CACHE_H_
#define SRC_CLAIR_FEATURE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/metrics/extract.h"
#include "src/metrics/feature_vector.h"

namespace clair {

// Incremental FNV-1a over bytes; `seed` chains multi-part digests.
uint64_t Fnv1a64(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ULL);

// Digest of an extraction subject: every file's identity and full text.
// Order-sensitive by design — file order affects deep-analysis budgeting.
uint64_t HashSourceFiles(const std::vector<metrics::SourceFile>& files,
                         uint64_t options_fingerprint);

// Row checksum used by the integrity guard: a digest of every (name, value)
// pair, stored beside the row at insert time and re-verified on lookup.
uint64_t ChecksumFeatures(const metrics::FeatureVector& features);

// Checksum of a flat payload row (RowCache's integrity guard).
uint64_t ChecksumRow(const std::vector<double>& row);

struct FeatureCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
  // Approximate resident bytes of the cached values (names + payloads +
  // fixed per-entry overhead).
  uint64_t bytes = 0;
  // Entries removed by the FIFO capacity policy (max_entries / max_bytes).
  // Not integrity rejects: an evicted row was valid, just old.
  uint64_t evictions = 0;
  // Cached rows rejected by the lookup-time integrity guard (checksum
  // mismatch or an injected cache fault); each reject is also a miss, so the
  // caller transparently recomputed the row.
  uint64_t integrity_rejects = 0;
  // Extractions avoided by request coalescing: duplicate in-flight requests
  // the serving scheduler routed to a single cache fill instead of extracting
  // independently (see Testbed::NoteCoalescedExtractions). Not part of
  // hits/misses — the coalesced requests never performed a lookup.
  uint64_t coalesced_fills = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class FeatureCache {
 public:
  // `max_entries` bounds entry count; `max_bytes` (0 = unbounded) bounds the
  // approximate resident size. Exceeding either bound evicts the oldest
  // entries first (deterministic FIFO in insertion order).
  explicit FeatureCache(size_t max_entries = 1 << 16, size_t max_bytes = 0)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  // Returns true and fills `out` on a valid hit. A stored row that fails the
  // integrity check is evicted and counted as integrity_rejects + a miss, so
  // the caller falls back to recomputation instead of consuming a corrupt
  // row. Counts a plain miss otherwise.
  bool Lookup(uint64_t key, metrics::FeatureVector* out) const;

  void Insert(uint64_t key, const metrics::FeatureVector& features);

  FeatureCacheStats stats() const;

  // Credits `count` coalesced fills (see FeatureCacheStats::coalesced_fills).
  void NoteCoalescedFills(uint64_t count) {
    coalesced_fills_.fetch_add(count, std::memory_order_relaxed);
  }

  // Test scaffolding: silently mutates the stored row (leaving its checksum
  // stale) so tests can prove the integrity guard fires. Returns false when
  // the key is absent.
  bool CorruptEntryForTest(uint64_t key);

 private:
  struct Entry {
    metrics::FeatureVector features;
    uint64_t checksum = 0;
    uint64_t bytes = 0;
  };

  void EvictOverCapLocked();

  size_t max_entries_;
  size_t max_bytes_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<uint64_t, Entry> entries_;
  // Insertion order; erased keys (integrity rejects) leave stale entries
  // that the eviction sweep skips.
  mutable std::deque<uint64_t> order_;
  mutable uint64_t bytes_ = 0;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> integrity_rejects_{0};
  mutable std::atomic<uint64_t> coalesced_fills_{0};
};

// Function-granular payload cache: flat vector<double> rows keyed by
// normalized body-token hashes (see incremental.h). Same integrity guard,
// stats surface, and FIFO capacity policy as FeatureCache; payloads are
// positional (the caller owns the schema), which keeps per-function entries
// an order of magnitude smaller than named FeatureVectors.
class RowCache {
 public:
  explicit RowCache(size_t max_entries = 1 << 18, size_t max_bytes = 0)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  bool Lookup(uint64_t key, std::vector<double>* out) const;

  void Insert(uint64_t key, const std::vector<double>& row);

  FeatureCacheStats stats() const;

 private:
  struct Entry {
    std::vector<double> row;
    uint64_t checksum = 0;
    uint64_t bytes = 0;
  };

  void EvictOverCapLocked();

  size_t max_entries_;
  size_t max_bytes_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<uint64_t, Entry> entries_;
  mutable std::deque<uint64_t> order_;
  mutable uint64_t bytes_ = 0;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> integrity_rejects_{0};
};

}  // namespace clair

#endif  // SRC_CLAIR_FEATURE_CACHE_H_
