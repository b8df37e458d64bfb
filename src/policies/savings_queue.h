#ifndef RUBIK_POLICIES_SAVINGS_QUEUE_H
#define RUBIK_POLICIES_SAVINGS_QUEUE_H

/**
 * @file
 * DynamicOracle's queue of step-down savings: a max-queue of
 * (saving, request) keys that pops them in std::pair order, as a radix
 * heap on the savings' IEEE-754 bits.
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
 * Positive doubles order as their bit patterns do, so a saving's key
 * ~bits orders the savings in reverse, and the queue keeps the smallest
 * key on top. An entry lives in bucket b = bit_width(key ^ last), where
 * `last` is the key popped last: bucket 0 holds keys equal to `last`,
 * and every key in bucket b shares its bits above b - 1 with `last`, so
 * all of them are smaller than any key in a higher bucket. Popping an
 * empty bucket 0 makes the lowest nonempty bucket's smallest key the
 * new `last` and redistributes that bucket below itself; no entry ever
 * moves up.
 *
 * Callers keep the monotone contract: every saving is positive, and
 * every saving pushed after the first pop is strictly below the saving
 * popped last. Equal savings then only meet in bucket 0 through a
 * redistribution, which sorts them by request, so the queue pops
 * exactly the sequence std::priority_queue<std::pair<double,
 * std::size_t>> pops for the same pushes.
 */
class SavingsQueue
{
  public:
    /// A queue for requests 0 .. requests - 1, each holding at most
    /// one entry at a time.
    explicit SavingsQueue(std::size_t requests) : keys_(requests)
    {
        RUBIK_ASSERT(requests <= std::size_t{1} << 32,
                     "too many requests for 32-bit queue entries");
    }

    bool empty() const { return nonEmpty_ == 0; }

    void push(double saving, std::size_t request)
    {
        const std::uint64_t key = ~std::bit_cast<std::uint64_t>(saving);
        keys_[request] = key;
        const unsigned b = bucketOf(key);
        buckets_[b].push_back(static_cast<std::uint32_t>(request));
        nonEmpty_ |= std::uint64_t{1} << b;
    }

    /// Remove and return the largest (saving, request).
    std::pair<double, std::size_t> pop()
    {
        if (buckets_[0].empty())
            redistribute();
        const std::uint32_t top = buckets_[0].back();
        buckets_[0].pop_back();
        if (buckets_[0].empty())
            nonEmpty_ &= ~std::uint64_t{1};
        return {std::bit_cast<double>(~keys_[top]), top};
    }

  private:
    /// A positive saving's key has its top bit set; starting `last`
    /// there keeps every bucket below 64.
    static constexpr std::uint64_t kTopBit = std::uint64_t{1} << 63;

    /// Entries a drained bucket may keep room for (4 KiB).
    static constexpr std::size_t kKeepCapacity = 1024;

    unsigned bucketOf(std::uint64_t key) const
    {
        return static_cast<unsigned>(std::bit_width(key ^ last_));
    }

    void redistribute()
    {
        const unsigned from =
            static_cast<unsigned>(std::countr_zero(nonEmpty_));
        std::vector<std::uint32_t> &src = buckets_[from];
        if (src.size() == 1) {
            // Half the refills: the lone entry is the top.
            last_ = keys_[src.front()];
            buckets_[0].push_back(src.front());
            src.clear();
            nonEmpty_ = (nonEmpty_ & ~(std::uint64_t{1} << from)) | 1;
            return;
        }
        last_ = keys_[src.front()];
        for (std::uint32_t r : src)
            last_ = std::min(last_, keys_[r]);
        for (std::uint32_t r : src) {
            const unsigned b = bucketOf(keys_[r]);
            buckets_[b].push_back(r);
            nonEmpty_ |= std::uint64_t{1} << b;
        }
        // A large bucket is redistributed once in a long while; give
        // its memory back rather than hold every bucket at its peak.
        if (src.capacity() > kKeepCapacity)
            std::vector<std::uint32_t>().swap(src);
        else
            src.clear();
        nonEmpty_ &= ~(std::uint64_t{1} << from);
        // Equal savings pop the larger request first, off the back.
        std::vector<std::uint32_t> &ties = buckets_[0];
        if (ties.size() > 1)
            std::sort(ties.begin(), ties.end());
    }

    std::vector<std::uint64_t> keys_; ///< Each request's current key.
    std::array<std::vector<std::uint32_t>, 64> buckets_;
    std::uint64_t nonEmpty_ = 0; ///< Bit b set: bucket b has entries.
    std::uint64_t last_ = kTopBit;
};

} // namespace rubik

#endif // RUBIK_POLICIES_SAVINGS_QUEUE_H
