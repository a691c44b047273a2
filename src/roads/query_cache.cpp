#include "roads/query_cache.h"

namespace roads::core {

std::shared_ptr<const QueryReply> QueryResultCache::find(std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->reply;
}

std::size_t QueryResultCache::insert(std::uint64_t key,
                                     std::shared_ptr<const QueryReply> reply) {
  if (max_entries_ == 0 || max_bytes_ == 0) return 0;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->reply->bytes();
    it->second->reply = std::move(reply);
    bytes_ += it->second->reply->bytes();
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(reply)});
    bytes_ += lru_.front().reply->bytes();
    index_[key] = lru_.begin();
  }
  std::size_t evicted = 0;
  // Never evict the entry just inserted, even if it alone exceeds the
  // byte bound — an oversized reply is still worth one slot.
  while (lru_.size() > 1 &&
         (lru_.size() > max_entries_ || bytes_ > max_bytes_)) {
    const auto& victim = lru_.back();
    bytes_ -= victim.reply->bytes();
    index_.erase(victim.key);
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

void QueryResultCache::clear() {
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

void NegativeCache::expire(sim::Time now) {
  while (!order_.empty() && now - order_.front().second > ttl_) {
    index_.erase(order_.front().first);
    order_.pop_front();
  }
}

bool NegativeCache::contains(std::uint64_t key, sim::Time now) {
  expire(now);
  return index_.count(key) > 0;
}

void NegativeCache::insert(std::uint64_t key, sim::Time now) {
  if (max_entries_ == 0) return;
  expire(now);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = now;
    order_.splice(order_.end(), order_, it->second);
    return;
  }
  while (index_.size() >= max_entries_) {
    index_.erase(order_.front().first);
    order_.pop_front();
  }
  order_.emplace_back(key, now);
  index_[key] = std::prev(order_.end());
}

void NegativeCache::clear() {
  order_.clear();
  index_.clear();
}

}  // namespace roads::core
