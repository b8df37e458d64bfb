#ifndef RUBIK_POLICIES_SAVINGS_QUEUE_H
#define RUBIK_POLICIES_SAVINGS_QUEUE_H

/**
 * @file
 * DynamicOracle's queue of step-down savings: a max-queue of
 * (saving, request) keys that pops them in std::pair order, from
 * buckets over the range of the savings' IEEE-754 bits, serving each
 * bucket as one sorted run.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.h"

namespace rubik {

/**
 * Monotone max-queue of (saving, request) keys.
 *
 * Positive doubles order as their bit patterns do. The constructor
 * spreads the bits of the savings' range [lo, hi] over kBuckets
 * buckets of equal width: a key's bucket is its offset from lo's bits,
 * shifted right just far enough to map hi into range, and clamped at
 * both ends, so a saving below lo falls into bucket 0 and one above hi
 * into the top bucket. The buckets partition the key order, so the
 * range only sets how evenly the keys spread, never the order.
 *
 * Each bucket is an intrusive singly linked list of requests, and a
 * bitmap marks the nonempty ones. When the current run is used up, pop
 * takes the highest nonempty bucket, sorts its entries by (saving,
 * request) and serves them largest first. A push into the bucket being
 * served is placed among the run's unserved entries at its sorted
 * position.
 *
 * Callers keep the monotone contract: every saving is positive, each
 * request holds at most one entry, and no push after the first pop
 * lands above the last pop (asserted). Every entry of a lower bucket
 * is then below every entry of the run, so the queue pops exactly the
 * sequence std::priority_queue<std::pair<double, std::size_t>> pops
 * for the same pushes.
 */
class SavingsQueue
{
  public:
    /// A queue for requests 0 .. requests - 1, each holding at most
    /// one entry at a time, whose buckets span the savings [lo, hi].
    /// Savings outside that range still pop in order, only from the
    /// clamped end buckets.
    SavingsQueue(std::size_t requests, double lo, double hi)
        : keys_(requests), next_(requests), heads_(kBuckets, kNone),
          lo_(std::bit_cast<std::uint64_t>(lo))
    {
        RUBIK_ASSERT(requests <= kNone,
                     "too many requests for 32-bit queue entries");
        const std::uint64_t top = std::bit_cast<std::uint64_t>(hi);
        const std::uint64_t span = top > lo_ ? top - lo_ : 0;
        shift_ = span < kBuckets ? 0 : std::bit_width(span) - kBucketBits;
    }

    bool empty() const { return size_ == 0; }

    void push(double saving, std::size_t request)
    {
        const Entry entry{std::bit_cast<std::uint64_t>(saving),
                          static_cast<std::uint32_t>(request)};
        RUBIK_ASSERT(saving > 0.0 && !(last_ < entry),
                     "saving not positive or above the last pop");
        ++size_;
        const unsigned b = bucketOf(entry.key);
        if (b == served_) {
            run_.push_back(entry);
            auto at = run_.end() - 1;
            for (; at != run_.begin() && entry < at[-1]; --at)
                *at = at[-1];
            *at = entry;
            return;
        }
        keys_[request] = entry.key;
        next_[request] = heads_[b];
        heads_[b] = entry.request;
        occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    }

    /// Remove and return the largest (saving, request).
    std::pair<double, std::size_t> pop()
    {
        if (run_.empty())
            nextRun();
        last_ = run_.back();
        run_.pop_back();
        --size_;
        return {std::bit_cast<double>(last_.key), last_.request};
    }

  private:
    static constexpr unsigned kBucketBits = 16;
    static constexpr unsigned kBuckets = 1u << kBucketBits;
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /// A (saving bits, request) key, ordered as std::pair orders them.
    struct Entry
    {
        std::uint64_t key;
        std::uint32_t request;

        friend bool operator<(const Entry &a, const Entry &b)
        {
            return a.key < b.key ||
                   (a.key == b.key && a.request < b.request);
        }
    };

    unsigned bucketOf(std::uint64_t key) const
    {
        const std::uint64_t offset = key > lo_ ? key - lo_ : 0;
        return static_cast<unsigned>(
            std::min<std::uint64_t>(offset >> shift_, kBuckets - 1));
    }

    /// Move the highest nonempty bucket, which is at or below the one
    /// served last, into the run, sorted to serve its largest first.
    void nextRun()
    {
        const unsigned from = std::min(served_, kBuckets - 1);
        std::size_t word = from / 64;
        std::uint64_t bits =
            occupied_[word] & (~std::uint64_t{0} >> (63 - from % 64));
        while (bits == 0) {
            RUBIK_ASSERT(word > 0, "queue entry above the bucket served");
            bits = occupied_[--word];
        }
        const unsigned bit =
            63 - static_cast<unsigned>(std::countl_zero(bits));
        served_ = static_cast<unsigned>(word * 64 + bit);
        occupied_[word] &= ~(std::uint64_t{1} << bit);
        for (std::uint32_t r = heads_[served_]; r != kNone; r = next_[r])
            run_.push_back({keys_[r], r});
        heads_[served_] = kNone;
        std::sort(run_.begin(), run_.end());
    }

    std::vector<std::uint64_t> keys_;  ///< Each listed request's key.
    std::vector<std::uint32_t> next_;  ///< Next request in its bucket.
    std::vector<std::uint32_t> heads_; ///< Each bucket's first request.
    std::array<std::uint64_t, kBuckets / 64> occupied_{};
    std::uint64_t lo_;
    unsigned shift_ = 0;
    /// The run: the served bucket's unserved entries, ascending.
    std::vector<Entry> run_;
    /// The bucket being served; kBuckets before the first pop.
    unsigned served_ = kBuckets;
    Entry last_{~std::uint64_t{0}, kNone}; ///< The last pop.
    std::size_t size_ = 0;
};

} // namespace rubik

#endif // RUBIK_POLICIES_SAVINGS_QUEUE_H
