/**
 * @file
 * Thread-safe memo keyed by exact byte strings: the one keying
 * scheme behind every memo in the tree (core::PlanCache,
 * sim::TimelineCache, alloc::AllocationMemo).
 *
 * Keys are two-level: a 64-bit fingerprint of the key bytes (callers
 * use fnv1a64) picks a bucket, and the full key is compared inside
 * the bucket — so a fingerprint collision between two different keys
 * can never alias their values (pinned by the cache-poisoning tests
 * in tests/test_core.cc and tests/test_alloc.cc).
 *
 * A cache is unbounded (capacity 0) or holds at most `capacity`
 * entries and evicts the oldest insertion first (FIFO). Values are
 * handed out as shared pointers, so a value stays alive for its
 * holder even after its eviction.
 */

#ifndef GOPIM_COMMON_FINGERPRINT_CACHE_HH
#define GOPIM_COMMON_FINGERPRINT_CACHE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gopim {

/** Fingerprint-bucketed, full-key-verified memo of `Value`s. */
template <typename Value>
class FingerprintCache
{
  public:
    /** `capacity` = max resident entries (0 = unbounded). */
    explicit FingerprintCache(size_t capacity = 0)
        : capacity_(capacity)
    {
    }

    /** The cached value for (fingerprint, key), or nullptr. */
    std::shared_ptr<const Value>
    find(uint64_t fingerprint, const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = buckets_.find(fingerprint);
        if (it != buckets_.end()) {
            for (const Entry &entry : it->second) {
                if (entry.key == key) {
                    ++hits_;
                    return entry.value;
                }
            }
        }
        ++misses_;
        return nullptr;
    }

    /**
     * Insert a value and return the stored copy. If the key is
     * already present (two workers computed the same entry), the
     * existing entry wins and is returned — every memoized
     * computation is deterministic, so both copies are identical.
     */
    std::shared_ptr<const Value>
    insert(uint64_t fingerprint, std::string key, Value value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Entry> &bucket = buckets_[fingerprint];
        for (const Entry &entry : bucket)
            if (entry.key == key)
                return entry.value;
        auto stored = std::make_shared<const Value>(std::move(value));
        bucket.push_back(Entry{std::move(key), stored, nextSerial_});
        ++size_;
        if (capacity_ > 0) {
            order_.emplace_back(fingerprint, nextSerial_);
            if (order_.size() > capacity_) {
                // One insertion over the bound evicts the oldest one.
                const auto [oldFingerprint, oldSerial] = order_.front();
                order_.pop_front();
                const auto it = buckets_.find(oldFingerprint);
                std::vector<Entry> &oldBucket = it->second;
                for (auto entry = oldBucket.begin();
                     entry != oldBucket.end(); ++entry) {
                    if (entry->serial == oldSerial) {
                        oldBucket.erase(entry);
                        break;
                    }
                }
                if (oldBucket.empty())
                    buckets_.erase(it);
                --size_;
                ++evictions_;
            }
        }
        ++nextSerial_;
        return stored;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return size_;
    }

    uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    uint64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

    uint64_t
    evictions() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return evictions_;
    }

  private:
    struct Entry
    {
        std::string key;
        std::shared_ptr<const Value> value;
        /** Insertion number; names the entry in order_. */
        uint64_t serial;
    };

    const size_t capacity_;
    mutable std::mutex mutex_;
    mutable uint64_t hits_ = 0;
    mutable uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t nextSerial_ = 0;
    size_t size_ = 0;
    std::map<uint64_t, std::vector<Entry>> buckets_;
    /** (fingerprint, serial) in insertion order; bounded caches only. */
    std::deque<std::pair<uint64_t, uint64_t>> order_;
};

} // namespace gopim

#endif // GOPIM_COMMON_FINGERPRINT_CACHE_HH
