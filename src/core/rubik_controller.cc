#include "core/rubik_controller.h"

#include <algorithm>

#include "util/error.h"

namespace rubik {

double
tableFrequency(const TargetTailTable &table, const CoreView &core,
               double target, const DvfsModel &dvfs, double ceiling)
{
    const double now = core.now;
    const std::size_t row = table.rowForElapsed(core.elapsedCycles);
    const double stop = dvfs.ceilingThreshold(ceiling);

    // Lane walk over the contiguous arrival-time window: position 0 is
    // the in-service request, the rest the FIFO queue.
    double needed = 0.0;
    for (std::size_t position = 0; position < core.count; ++position) {
        const double t_i = now - core.arrivals[position];
        const double m_i = table.tailMemTime(row, position);
        const double slack = target - t_i - m_i;
        if (slack <= 0.0) {
            // Already past the bound for this request's tail: all we can
            // do is run flat out.
            return std::min(dvfs.maxFrequency(), ceiling);
        }
        const double c_i = table.tailCycles(row, position);
        needed = std::max(needed, c_i / slack);
        // Once quantizeUp(needed) reaches the ceiling (or f_max) the
        // answer is fixed: quantizeUp is monotone, whatever the
        // positions left unread would add. Stop before their chain
        // steps run.
        if (needed - 1.0 > stop)
            break;
    }
    return std::min(dvfs.quantizeUp(needed), ceiling);
}

RubikController::RubikController(const DvfsModel &dvfs,
                                 const RubikConfig &config)
    : dvfs_(dvfs), cfg_(config),
      profiler_(config.profileWindow, config.table.buckets),
      internalTarget_(config.latencyBound),
      measured_(config.feedbackWindow),
      pi_(config.kp, config.ki, config.targetMultMin, config.targetMultMax,
          1.0),
      nextUpdate_(config.updatePeriod)
{
    RUBIK_ASSERT(config.latencyBound > 0, "latency bound must be set");
    cfg_.table.percentile = config.percentile;
}

void
RubikController::reset()
{
    profiler_.clear();
    table_.reset();
    internalTarget_ = cfg_.latencyBound;
    measured_ = RollingTail(cfg_.feedbackWindow);
    pi_.reset(1.0);
    nextUpdate_ = cfg_.updatePeriod;
    tableRebuilds_ = 0;
    retiredConvolutions_ = 0;
    completionsSeen_ = 0;
    completionsAtLastBuild_ = 0;
}

double
RubikController::selectFrequency(const CoreView &core)
{
    // A coordinator-assigned power cap bounds every choice below,
    // including the warmup and saturated max-frequency paths: meeting
    // the global budget outranks the latency bound (Sec. 7 of FastCap;
    // the tail cost shows up in the fleet results instead).
    const double ceiling = capCeiling(core);

    if (!core.busy) // idle: frequency is moot
        return std::min(core.frequency, ceiling);

    if (!table_) // warming up: be conservative
        return std::min(dvfs_.maxFrequency(), ceiling);

    return tableFrequency(*table_, core, internalTarget_, dvfs_, ceiling);
}

void
RubikController::onCompletion(const CompletedRequest &done,
                              const CoreView &core)
{
    (void)core;
    profiler_.record(done.computeCycles, done.memoryTime);
    measured_.add(done.completionTime, done.latency());
    ++completionsSeen_;
}

void
RubikController::periodicUpdate(const CoreView &core)
{
    // Keep the schedule strictly advancing even if the loop stalls.
    while (nextUpdate_ <= core.now + 1e-12)
        nextUpdate_ += cfg_.updatePeriod;

    const uint64_t fresh = completionsSeen_ - completionsAtLastBuild_;
    const bool enough_new =
        !table_ || fresh >= cfg_.minNewSamplesPerRebuild;
    if (profiler_.numSamples() >= cfg_.warmupSamples && enough_new) {
        if (table_)
            retiredConvolutions_ += table_->convolutions();
        table_ = TargetTailTable::build(profiler_.computeDistribution(),
                                        profiler_.memoryDistribution(),
                                        cfg_.table);
        ++tableRebuilds_;
        completionsAtLastBuild_ = completionsSeen_;
    }

    if (cfg_.feedback && table_) {
        measured_.expire(core.now);
        if (measured_.size() >= 32) {
            const double tail = measured_.tail(cfg_.percentile);
            // Positive error: measured tail is below the bound, i.e. we
            // are conservative and can relax the internal target.
            const double error =
                (cfg_.latencyBound - tail) / cfg_.latencyBound;
            const double mult = pi_.update(error, cfg_.updatePeriod);
            internalTarget_ = mult * cfg_.latencyBound;
        }
    }
}

} // namespace rubik
