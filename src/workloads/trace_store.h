#ifndef RUBIK_WORKLOADS_TRACE_STORE_H
#define RUBIK_WORKLOADS_TRACE_STORE_H

/**
 * @file
 * Memoized trace store shared across experiment jobs.
 *
 * Several benches and the fleet layer replay the *same* generated
 * trace under many schemes or configurations: the ablations regenerate
 * the identical (app, load, n, seed) trace once per variant. TraceStore
 * computes each trace exactly once per process, no matter how many
 * ExperimentRunner jobs request it concurrently, and hands out
 * shared_ptr<const Trace> so callers can hold results without copying.
 * Entries live until clear(). Sweeps do not use it: they free each
 * trace after its last cell (runner/sweep_runner.h).
 *
 * Thread safety: the first requester of a key becomes its producer; it
 * generates the trace *outside* the store lock while later requesters
 * block on a shared_future for that key. Generation failures propagate
 * to every waiter and are not cached, so a subsequent request retries.
 *
 * Determinism: the store only memoizes — generateLoadTrace is already
 * deterministic in its arguments, so a cache hit returns bit-identical
 * data to a fresh generation, and results cannot depend on which job
 * happened to populate the entry first.
 */

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "sim/trace.h"
#include "workloads/apps.h"

namespace rubik {

/// Everything generateLoadTrace depends on, as a map key. `app` is the
/// app's name; callers substituting a modified AppProfile under the
/// same name must use get() with their own tag instead.
struct TraceKey
{
    std::string app;
    double load = 0.0;
    int numRequests = 0;
    double nominalFreq = 0.0;
    uint64_t seed = 0;

    auto operator<=>(const TraceKey &) const = default;
};

class TraceStore
{
  public:
    TraceStore() = default;

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /**
     * Return the trace for `key`, generating it with `generate` if this
     * is the first request. Concurrent requests for the same key block
     * until the single producer finishes; exactly one of them invokes
     * `generate`.
     */
    std::shared_ptr<const Trace> get(const TraceKey &key,
                                     const std::function<Trace()>
                                         &generate);

    /// Convenience wrapper: memoized generateLoadTrace(app, ...).
    std::shared_ptr<const Trace> loadTrace(const AppProfile &app,
                                           double load, int num_requests,
                                           double nominal_freq,
                                           uint64_t seed);

    struct Stats
    {
        uint64_t hits = 0;      ///< Served from the map.
        uint64_t misses = 0;    ///< Not in the map yet.
        uint64_t generated = 0; ///< Generator ran and succeeded.
    };

    /// Cumulative counters.
    Stats stats() const;

    /// Number of cached traces.
    std::size_t size() const;

    /// Drop every cached trace and reset the counters.
    void clear();

  private:
    using Future = std::shared_future<std::shared_ptr<const Trace>>;

    mutable std::mutex mutex_;
    std::map<TraceKey, Future> entries_;
    Stats stats_;
};

/// Process-wide store used by the benches and the sweep runner.
TraceStore &globalTraceStore();

} // namespace rubik

#endif // RUBIK_WORKLOADS_TRACE_STORE_H
