#include "core/rubik_boost.h"

#include <algorithm>

#include "util/error.h"

namespace rubik {

RubikBoostController::RubikBoostController(const DvfsModel &dvfs,
                                           const RubikBoostConfig &config)
    : dvfs_(dvfs), cfg_(config),
      mixProfiler_(config.base.profileWindow, config.base.table.buckets),
      internalTarget_(config.base.latencyBound),
      measured_(config.base.feedbackWindow),
      pi_(config.base.kp, config.base.ki, config.base.targetMultMin,
          config.base.targetMultMax, 1.0),
      nextUpdate_(config.base.updatePeriod)
{
    RUBIK_ASSERT(config.base.latencyBound > 0, "latency bound must be set");
    RUBIK_ASSERT(config.numClasses >= 1, "need at least one class");
    cfg_.base.table.percentile = config.base.percentile;
    for (int k = 0; k < cfg_.numClasses; ++k) {
        classProfilers_.emplace_back(cfg_.base.profileWindow,
                                     cfg_.base.table.buckets);
    }
    classTables_.resize(cfg_.numClasses);
}

void
RubikBoostController::reset()
{
    mixProfiler_.clear();
    for (auto &p : classProfilers_)
        p.clear();
    mixTable_.reset();
    for (auto &t : classTables_)
        t.reset();
    internalTarget_ = cfg_.base.latencyBound;
    measured_ = RollingTail(cfg_.base.feedbackWindow);
    pi_.reset(1.0);
    nextUpdate_ = cfg_.base.updatePeriod;
    completionsSeen_ = 0;
    completionsAtLastBuild_ = 0;
}

const TargetTailTable *
RubikBoostController::tableFor(int class_hint) const
{
    if (class_hint >= 0 &&
        class_hint < static_cast<int>(classTables_.size()) &&
        classTables_[class_hint]) {
        return &*classTables_[class_hint];
    }
    return mixTable_ ? &*mixTable_ : nullptr;
}

double
RubikBoostController::selectFrequency(const CoreView &core)
{
    // Same cap semantics as RubikController: the coordinator's power
    // cap outranks the latency bound on every path.
    const double ceiling = capCeiling(core);
    if (!core.busy)
        return std::min(core.frequency, ceiling);
    if (!mixTable_)
        return std::min(dvfs_.maxFrequency(), ceiling);

    return tableFrequency(*tableFor(core.classHints[0]), core,
                          internalTarget_, dvfs_, ceiling);
}

void
RubikBoostController::onCompletion(const CompletedRequest &done,
                                   const CoreView &core)
{
    (void)core;
    mixProfiler_.record(done.computeCycles, done.memoryTime);
    if (done.classHint >= 0 &&
        done.classHint < static_cast<int>(classProfilers_.size())) {
        classProfilers_[done.classHint].record(done.computeCycles,
                                               done.memoryTime);
    }
    measured_.add(done.completionTime, done.latency());
    ++completionsSeen_;
}

void
RubikBoostController::periodicUpdate(const CoreView &core)
{
    while (nextUpdate_ <= core.now + 1e-12)
        nextUpdate_ += cfg_.base.updatePeriod;

    const uint64_t fresh = completionsSeen_ - completionsAtLastBuild_;
    const bool enough_new =
        !mixTable_ || fresh >= cfg_.base.minNewSamplesPerRebuild;
    if (mixProfiler_.numSamples() >= cfg_.base.warmupSamples &&
        enough_new) {
        const DiscreteDistribution mix_c =
            mixProfiler_.computeDistribution();
        const DiscreteDistribution mix_m =
            mixProfiler_.memoryDistribution();
        mixTable_ = TargetTailTable::build(mix_c, mix_m, cfg_.base.table);
        // Every warm class gets a table whose S_0 is its own profile;
        // a class still warming up keeps the table it had.
        for (int k = 0; k < cfg_.numClasses; ++k) {
            Profiler &p = classProfilers_[k];
            if (p.numSamples() < cfg_.classWarmupSamples)
                continue;
            classTables_[k] = TargetTailTable::build(
                p.computeDistribution(), p.memoryDistribution(), mix_c,
                mix_m, cfg_.base.table);
        }
        completionsAtLastBuild_ = completionsSeen_;
    }

    if (cfg_.base.feedback && mixTable_) {
        measured_.expire(core.now);
        if (measured_.size() >= 32) {
            const double tail = measured_.tail(cfg_.base.percentile);
            const double error =
                (cfg_.base.latencyBound - tail) / cfg_.base.latencyBound;
            internalTarget_ = pi_.update(error, cfg_.base.updatePeriod) *
                              cfg_.base.latencyBound;
        }
    }
}

} // namespace rubik
