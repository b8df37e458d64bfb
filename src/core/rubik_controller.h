#ifndef RUBIK_CORE_RUBIK_CONTROLLER_H
#define RUBIK_CORE_RUBIK_CONTROLLER_H

/**
 * @file
 * Rubik: the paper's fine-grain analytical DVFS controller (Sec. 4).
 *
 * On every request arrival and completion, Rubik evaluates, for every
 * request i currently in the system, the constraint
 *
 *     f >= c_i / (L - (t_i + m_i))                           (Eq. 2)
 *
 * where c_i / m_i come from the precomputed target tail tables, t_i is how
 * long request i has been in the system, and L is the (internal) latency
 * target. It picks the smallest grid frequency satisfying all constraints.
 * The tables are rebuilt every 100 ms from online profiles, and a PI
 * feedback loop on the measured tail trims Rubik's conservatism.
 */

#include <cstdint>
#include <optional>

#include "core/pi_controller.h"
#include "core/profiler.h"
#include "core/target_tail_table.h"
#include "power/dvfs_model.h"
#include "sim/policy.h"
#include "stats/rolling_tail.h"

namespace rubik {

/// Rubik configuration. Defaults follow Sec. 4.2.
struct RubikConfig
{
    /// Tail latency bound L (seconds). Must be set.
    double latencyBound = 0.0;
    /// Target percentile (paper: 95th).
    double percentile = 0.95;
    /// Table rebuild period (paper: 100 ms).
    double updatePeriod = 100e-3;
    /// Enable the PI feedback fine-tuning stage.
    bool feedback = true;
    /// Rolling window for the measured tail (paper: 1 s).
    double feedbackWindow = 1.0;
    /// PI gains on the relative tail error; output is the multiplier
    /// applied to L to form the internal target.
    double kp = 0.3;
    double ki = 1.0;
    /// Clamp on the internal-target multiplier.
    double targetMultMin = 0.4;
    double targetMultMax = 2.5;
    /// Completed requests profiled before the first table build; until
    /// then Rubik conservatively runs at maximum frequency.
    std::size_t warmupSamples = 64;
    /// Sliding profile window (requests).
    std::size_t profileWindow = 4096;
    /// Skip a periodic rebuild when fewer than this many requests
    /// completed since the last one (the sliding-window distributions
    /// would be nearly unchanged). 0 forces a rebuild every period.
    std::size_t minNewSamplesPerRebuild = 32;
    /// Table shape.
    TailTableConfig table;
};

/**
 * Eq. 2 over the requests in the system, read from `table` at the
 * in-flight request's row against the internal latency target
 * `target`: the smallest grid frequency meeting every request's tail,
 * capped at `ceiling`, or the capped maximum frequency once a request
 * has no slack left. The walk stops once quantizeUp(needed) reaches
 * `ceiling` (or the maximum frequency): `needed` only grows with
 * position, so the positions left unread cannot change the answer,
 * and their chain steps never run. RubikController and
 * RubikBoostController both decide here.
 */
double tableFrequency(const TargetTailTable &table, const CoreView &core,
                      double target, const DvfsModel &dvfs,
                      double ceiling);

/**
 * The Rubik DVFS policy.
 */
class RubikController : public DvfsPolicy
{
  public:
    RubikController(const DvfsModel &dvfs, const RubikConfig &config);

    void reset() override;
    double selectFrequency(const CoreView &core) override;
    void onCompletion(const CompletedRequest &done,
                      const CoreView &core) override;
    double nextPeriodicUpdate() const override { return nextUpdate_; }
    void periodicUpdate(const CoreView &core) override;

    /// @name Introspection (tests, benches)
    /// @{
    bool warm() const { return table_.has_value(); }
    const TargetTailTable *table() const
    {
        return table_ ? &*table_ : nullptr;
    }
    double internalTarget() const { return internalTarget_; }
    const RubikConfig &config() const { return cfg_; }
    uint64_t tableRebuilds() const { return tableRebuilds_; }
    /// Convolution chain steps run by every table built so far; tables
    /// compute entries on demand, so this counts the work decisions
    /// actually pulled in.
    uint64_t tableConvolutions() const
    {
        return retiredConvolutions_ + (table_ ? table_->convolutions() : 0);
    }
    /// Full profile recounts behind the table builds so far (both
    /// sides); every other build reused the counts kept per sample.
    uint64_t profileRescans() const { return profiler_.rescans(); }
    /// @}

  private:
    const DvfsModel &dvfs_;
    RubikConfig cfg_;
    Profiler profiler_;
    std::optional<TargetTailTable> table_;
    double internalTarget_;
    RollingTail measured_;
    PiController pi_;
    double nextUpdate_;
    uint64_t tableRebuilds_ = 0;
    uint64_t retiredConvolutions_ = 0; ///< Steps of replaced tables.
    uint64_t completionsSeen_ = 0;
    uint64_t completionsAtLastBuild_ = 0;
};

} // namespace rubik

#endif // RUBIK_CORE_RUBIK_CONTROLLER_H
