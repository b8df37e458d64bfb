#include "workloads/trace_store.h"

#include "workloads/trace_gen.h"

namespace rubik {

std::shared_ptr<const Trace>
TraceStore::get(const TraceKey &key,
                const std::function<Trace()> &generate)
{
    std::promise<std::shared_ptr<const Trace>> promise;
    Future future;
    bool producer = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.hits;
            future = it->second;
        } else {
            ++stats_.misses;
            producer = true;
            future = promise.get_future().share();
            entries_.emplace(key, future);
        }
    }
    if (producer) {
        try {
            auto value = std::make_shared<const Trace>(generate());
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.generated;
            }
            promise.set_value(std::move(value));
        } catch (...) {
            // Uncache the failed entry first so a later request
            // retries instead of re-observing this exception.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                entries_.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::shared_ptr<const Trace>
TraceStore::loadTrace(const AppProfile &app, double load,
                      int num_requests, double nominal_freq,
                      uint64_t seed)
{
    const TraceKey key{app.name, load, num_requests, nominal_freq,
                       seed};
    return get(key, [&] {
        return generateLoadTrace(app, load, num_requests, nominal_freq,
                                 seed);
    });
}

TraceStore::Stats
TraceStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
TraceStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
TraceStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    stats_ = Stats{};
}

TraceStore &
globalTraceStore()
{
    static TraceStore store;
    return store;
}

} // namespace rubik
