#include "server/cache.h"

#include <cstdio>
#include <utility>
#include <vector>

namespace gdlog {

std::string InferenceCache::KeyPrefix(std::string_view program_id,
                                      uint64_t revision,
                                      std::string_view lineage_digest) {
  std::string key;
  key.reserve(program_id.size() + lineage_digest.size() + 32);
  key += program_id;
  key += "|rev=";
  key += std::to_string(revision);
  key += "|lin=";
  key += lineage_digest;
  key += "|";
  return key;
}

std::string InferenceCache::Fingerprint(std::string_view program_id,
                                        uint64_t revision,
                                        std::string_view lineage_digest,
                                        const ChaseOptions& options) {
  // min_path_prob is a double; %a renders its bits exactly, so two options
  // differing only in the last ulp get distinct keys.
  char mpp[40];
  std::snprintf(mpp, sizeof(mpp), "%a", options.min_path_prob);
  std::string key = KeyPrefix(program_id, revision, lineage_digest);
  key.reserve(key.size() + 96);
  key += "mo=";
  key += std::to_string(options.max_outcomes);
  key += "|md=";
  key += std::to_string(options.max_depth);
  key += "|sl=";
  key += std::to_string(options.support_limit);
  key += "|mpp=";
  key += mpp;
  key += "|ss=";
  key += std::to_string(options.trigger_shuffle_seed);
  key += "|smn=";
  key += std::to_string(options.solver_max_nodes);
  return key;
}

Result<std::shared_ptr<const OutcomeSpace>> InferenceCache::Lookup(
    const ProgramRegistry::Entry& entry, const ChaseOptions& options,
    std::string_view key_suffix, const ComputeFn& compute) {
  std::string key =
      Fingerprint(entry.id, entry.revision, entry.lineage_digest, options);
  key += key_suffix;
  const size_t prefix_size =
      KeyPrefix(entry.id, entry.revision, entry.lineage_digest).size();
  return LookupOrCompute(key, [&]() -> Result<OutcomeSpace> {
    std::string_view suffix = std::string_view(key).substr(prefix_size);
    std::vector<GroundAtom> added;
    const std::vector<LineageLink>& lineage = entry.lineage;
    for (size_t back = 0; back < lineage.size() && back < kMaxAncestorLinks;
         ++back) {
      const LineageLink& link = lineage[lineage.size() - 1 - back];
      if (link.touches_rule_bodies) break;
      added.insert(added.end(), link.added_facts.begin(),
                   link.added_facts.end());
      std::string ancestor_key =
          KeyPrefix(entry.id, link.base_revision, link.digest_before);
      ancestor_key += suffix;
      if (std::shared_ptr<const OutcomeSpace> ancestor = Take(ancestor_key)) {
        revalidated_.fetch_add(1, std::memory_order_relaxed);
        return ancestor->WithAddedFacts(added);
      }
    }
    return compute();
  });
}

template <>
size_t ByteLruCache<OutcomeSpace>::ApproxBytes(const OutcomeSpace& space) {
  // Heap-node overheads are rough constants; the point is a stable,
  // monotone estimate, not an allocator audit.
  constexpr size_t kNodeOverhead = 48;
  auto atom_bytes = [](const GroundAtom& atom) {
    return sizeof(GroundAtom) + atom.args.capacity() * sizeof(Value);
  };
  size_t bytes = sizeof(OutcomeSpace);
  for (const PossibleOutcome& outcome : space.outcomes) {
    bytes += sizeof(PossibleOutcome);
    for (const auto& [active, value] : outcome.choices.entries()) {
      bytes += kNodeOverhead + atom_bytes(active) + sizeof(value);
    }
    for (const StableModel& model : outcome.models) {
      bytes += kNodeOverhead + sizeof(StableModel);
      for (const GroundAtom& atom : model) bytes += atom_bytes(atom);
    }
  }
  return bytes;
}

template <>
size_t ByteLruCache<std::string>::ApproxBytes(const std::string& value) {
  return value.size();
}

template <typename V>
Result<std::shared_ptr<const V>> ByteLruCache<V>::LookupOrCompute(
    const std::string& key, const ComputeFn& compute) {
  std::shared_ptr<Inflight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.value;
    }
    auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      // Someone else is already computing this key: wait for their result
      // instead of burning a second compute on identical work.
      ++coalesced_;
      std::shared_ptr<Inflight> theirs = in->second;
      cv_.wait(lock, [&] { return theirs->done; });
      if (!theirs->status.ok()) return theirs->status;
      return theirs->value;
    }
    ++misses_;
    flight = std::make_shared<Inflight>();
    inflight_.emplace(key, flight);
  }

  // The compute runs without the lock: concurrent lookups of *other* keys
  // proceed, and same-key lookups block on the inflight entry above.
  Result<V> result = compute();

  std::lock_guard<std::mutex> lock(mu_);
  if (result.ok()) {
    flight->value = std::make_shared<const V>(std::move(*result));
    InsertLocked(key, flight->value);
  } else {
    flight->status = result.status();
  }
  flight->done = true;
  inflight_.erase(key);
  cv_.notify_all();
  if (!flight->status.ok()) return flight->status;
  return flight->value;
}

template <typename V>
void ByteLruCache<V>::InsertLocked(const std::string& key,
                                   std::shared_ptr<const V> value) {
  size_t bytes = key.size() + ApproxBytes(*value);
  // A capacity of 0 stores nothing; an oversized value would evict
  // everything for nothing.
  if (capacity_bytes_ == 0 || bytes > capacity_bytes_) return;
  lru_.push_front(key);
  EntryData& data = entries_[key];
  data.value = std::move(value);
  data.bytes = bytes;
  data.lru_it = lru_.begin();
  bytes_ += bytes;
  ++inserts_;
  while (bytes_ > capacity_bytes_ && lru_.size() > 1) {
    ++evictions_;
    EraseLocked(entries_.find(lru_.back()));
  }
}

template <typename V>
void ByteLruCache<V>::EraseLocked(
    typename std::unordered_map<std::string, EntryData>::iterator it) {
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

template <typename V>
std::shared_ptr<const V> ByteLruCache<V>::Take(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  std::shared_ptr<const V> value = std::move(it->second.value);
  EraseLocked(it);
  return value;
}

template <typename V>
size_t ByteLruCache<V>::ErasePrefix(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (std::string_view(it->first).substr(0, prefix.size()) == prefix) {
      auto victim = it++;
      EraseLocked(victim);
      ++evictions_;
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

template <typename V>
void ByteLruCache<V>::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

template <typename V>
typename ByteLruCache<V>::Stats ByteLruCache<V>::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.coalesced = coalesced_;
  stats.evictions = evictions_;
  stats.inserts = inserts_;
  stats.entries = entries_.size();
  stats.bytes = bytes_;
  stats.capacity_bytes = capacity_bytes_;
  return stats;
}

template class ByteLruCache<OutcomeSpace>;
template class ByteLruCache<std::string>;

}  // namespace gdlog
