#include "policies/pegasus.h"

#include <algorithm>

#include "util/error.h"

namespace rubik {

PegasusPolicy::PegasusPolicy(const DvfsModel &dvfs,
                             const PegasusConfig &config)
    : dvfs_(dvfs), cfg_(config), measured_(config.window),
      freq_(dvfs.maxFrequency()), nextEpoch_(config.epoch)
{
    RUBIK_ASSERT(config.latencyBound > 0, "latency bound must be set");
}

void
PegasusPolicy::reset()
{
    measured_ = RollingTail(cfg_.window);
    freq_ = dvfs_.maxFrequency();
    nextEpoch_ = cfg_.epoch;
}

double
PegasusPolicy::selectFrequency(const CoreView &core)
{
    // Feedback can ask for any grid point; a coordinator-assigned
    // power cap clips it (the epoch state still tracks the uncapped
    // choice, so lifting the cap restores normal operation).
    return std::min(freq_, capCeiling(core));
}

void
PegasusPolicy::onCompletion(const CompletedRequest &done,
                            const CoreView &core)
{
    (void)core;
    measured_.add(done.completionTime, done.latency());
}

void
PegasusPolicy::periodicUpdate(const CoreView &core)
{
    nextEpoch_ = catchUp(nextEpoch_, cfg_.epoch, core.now);

    measured_.expire(core.now);
    if (measured_.empty())
        return;

    const double tail = measured_.tail(cfg_.percentile);
    const double bound = cfg_.latencyBound;
    const std::size_t idx = dvfs_.indexOf(freq_);

    if (tail > cfg_.panicAt * bound) {
        freq_ = dvfs_.maxFrequency();
    } else if (tail > cfg_.stepUpAt * bound) {
        if (idx + 1 < dvfs_.numFrequencies())
            freq_ = dvfs_.frequencies()[idx + 1];
    } else if (tail < cfg_.stepDownAt * bound) {
        if (idx > 0)
            freq_ = dvfs_.frequencies()[idx - 1];
    }
}

} // namespace rubik
