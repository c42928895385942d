#ifndef GDLOG_SERVER_CACHE_H_
#define GDLOG_SERVER_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "gdatalog/chase.h"
#include "gdatalog/outcome.h"
#include "server/registry.h"

namespace gdlog {

/// gdlogd's one cache: a byte-bounded LRU from string keys to shared
/// immutable values, with single-flight deduplication — N concurrent
/// lookups of the same key run one compute, and the other N-1 block until
/// it lands (counted as `coalesced`).
///
/// Both instances key a deterministic result: the InferenceCache below
/// (fingerprint → OutcomeSpace) and the fleet worker's partial cache
/// (fingerprint + plan coordinates + shard index → serialized partial
/// line). A key therefore names one value.
///
/// An entry is charged `key.size() + ApproxBytes(value)`. A value whose
/// charge exceeds the whole capacity is returned uncached, so a capacity of
/// 0 stores nothing (single-flight still applies).
///
/// Instantiated for OutcomeSpace and std::string only (cache.cc).
template <typename V>
class ByteLruCache {
 public:
  struct Stats {
    uint64_t hits = 0;         ///< Served from the cache.
    uint64_t misses = 0;       ///< Led a compute.
    uint64_t coalesced = 0;    ///< Waited on another lookup's compute.
    uint64_t evictions = 0;    ///< Entries dropped to respect the bound.
    uint64_t inserts = 0;      ///< Entries ever stored.
    size_t entries = 0;        ///< Current entry count.
    size_t bytes = 0;          ///< Current charge, keys included.
    size_t capacity_bytes = 0;
  };

  using ComputeFn = std::function<Result<V>()>;

  explicit ByteLruCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns the cached value for `key`, or runs `compute` (outside the
  /// cache lock) and caches its result. Concurrent callers with the same
  /// key share one compute; a failed compute is returned to every waiter
  /// and never cached.
  Result<std::shared_ptr<const V>> LookupOrCompute(const std::string& key,
                                                   const ComputeFn& compute);

  /// Drops every entry whose key starts with `prefix` (keys embed the
  /// program id first, so this is "forget program X"). Returns the number
  /// dropped; they count as evictions.
  size_t ErasePrefix(std::string_view prefix);

  /// Removes the entry stored under exactly `key` and returns its value,
  /// or nullptr when there is none. Neither a hit nor an eviction: the
  /// caller moves the value on (InferenceCache::Lookup patches it into the
  /// space of a newer lineage).
  std::shared_ptr<const V> Take(const std::string& key);

  void Clear();

  Stats stats() const;

  /// Approximate heap footprint of a value (a space's outcomes, choice
  /// sets and stable models; a string's size()); with the key's length,
  /// the unit of the LRU bound.
  static size_t ApproxBytes(const V& value);

 private:
  struct EntryData {
    std::shared_ptr<const V> value;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  struct Inflight {
    bool done = false;
    Status status;
    std::shared_ptr<const V> value;
  };

  /// Under mu_: stores `value` unless it exceeds the capacity, and evicts
  /// from the LRU tail until within bounds. Only a key's single-flight
  /// leader inserts it, so the key is never already present.
  void InsertLocked(const std::string& key, std::shared_ptr<const V> value);
  void EraseLocked(
      typename std::unordered_map<std::string, EntryData>::iterator it);

  const size_t capacity_bytes_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signaled when an inflight completes
  std::unordered_map<std::string, EntryData> entries_;
  std::list<std::string> lru_;  ///< front = most recent
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t evictions_ = 0;
  uint64_t inserts_ = 0;
};

template <>
size_t ByteLruCache<OutcomeSpace>::ApproxBytes(const OutcomeSpace& space);
template <>
size_t ByteLruCache<std::string>::ApproxBytes(const std::string& value);

/// Maps a canonical fingerprint of (program id, DB revision, the
/// semantics-affecting ChaseOptions) to a shared immutable OutcomeSpace.
///
/// Why exact results are cacheable at all: the chase is deterministic —
/// for a fixed program, database, grounder and budgets, Explore() produces
/// the identical outcome space for every thread count and schedule
/// whenever no budget binds (ChaseOptions::num_threads contract, pinned by
/// parallel_chase_test/shard_test). The fingerprint therefore names the
/// result, not the computation. When a budget does bind the space is one
/// valid truncation; the cache serves whichever was computed first, which
/// is no weaker than what a fresh run promises.
class InferenceCache : public ByteLruCache<OutcomeSpace> {
 public:
  using ByteLruCache::ByteLruCache;

  static constexpr size_t kMaxAncestorLinks = 8;

  /// The lookup behind /v1/query and /v1/jobs, keyed by `entry`'s current
  /// lineage, `options` and `key_suffix` (the demand signature, or empty).
  /// A miss first walks `entry.lineage` back from the newest link, at most
  /// kMaxAncestorLinks links and never across one that touches a rule
  /// body, probing each ancestor's key. The deltas it crosses lie in the
  /// bottom of a splitting set (Lifschitz & Turner, ICLP 1994), so the
  /// first ancestor found, taken out of the cache and passed through
  /// WithAddedFacts of every delta since, is this lineage's space. Only if
  /// none is found does `compute` run.
  Result<std::shared_ptr<const OutcomeSpace>> Lookup(
      const ProgramRegistry::Entry& entry, const ChaseOptions& options,
      std::string_view key_suffix, const ComputeFn& compute);

  /// Misses that Lookup() served from an ancestor instead of `compute`.
  uint64_t revalidated() const {
    return revalidated_.load(std::memory_order_relaxed);
  }

  /// The identity half of a fingerprint: program id, DB revision and the
  /// delta-lineage digest (empty for a freshly registered or fully
  /// replaced database). Every fingerprint starts with this, and the
  /// options half follows it, so an ancestor's key is its KeyPrefix plus
  /// the same options half.
  static std::string KeyPrefix(std::string_view program_id, uint64_t revision,
                               std::string_view lineage_digest);

  /// Canonical cache key: KeyPrefix plus exactly the ChaseOptions fields
  /// that affect the resulting space — max_outcomes, max_depth,
  /// support_limit, min_path_prob, trigger_shuffle_seed, solver_max_nodes.
  /// num_threads, incremental and keep_groundings are deliberately
  /// excluded (they change the computation, not the result);
  /// compute_models is forced true by the serving layer.
  static std::string Fingerprint(std::string_view program_id,
                                 uint64_t revision,
                                 std::string_view lineage_digest,
                                 const ChaseOptions& options);
  static std::string Fingerprint(std::string_view program_id,
                                 uint64_t revision,
                                 const ChaseOptions& options) {
    return Fingerprint(program_id, revision, "", options);
  }

 private:
  std::atomic<uint64_t> revalidated_{0};
};

}  // namespace gdlog

#endif  // GDLOG_SERVER_CACHE_H_
