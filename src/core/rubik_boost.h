#ifndef RUBIK_CORE_RUBIK_BOOST_H
#define RUBIK_CORE_RUBIK_BOOST_H

/**
 * @file
 * RubikBoost: the Rubik + Adrenaline hybrid the paper suggests as future
 * work (Sec. 5.2: "Rubik and Adrenaline ... are complementary techniques
 * ... These approaches could be combined to further improve efficiency").
 *
 * Adrenaline contributes application-level request-class hints (short vs
 * long), available at arrival; Rubik contributes the queue-aware
 * statistical model. RubikBoost profiles each class separately and builds
 * one target tail table per class, whose S_0 chain starts from the
 * *class-conditional* service distribution while queued requests (whose
 * classes churn) still use the overall mixture:
 *
 *     S_i = S_0^class(ω) ⊛ S^mix ⊛ ... ⊛ S^mix
 *
 * A short request therefore gets a much tighter c_0 than under plain
 * Rubik (which must assume it might be long), so short requests run
 * slower and save power, while a known-long request is boosted from its
 * first cycle instead of only after its elapsed work reveals it.
 * Requests without hints fall back to the mixture table — RubikBoost
 * degrades gracefully to plain Rubik.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "core/pi_controller.h"
#include "core/profiler.h"
#include "core/rubik_controller.h"
#include "core/target_tail_table.h"
#include "power/dvfs_model.h"
#include "sim/policy.h"
#include "stats/rolling_tail.h"

namespace rubik {

/// RubikBoost configuration: plain Rubik plus class handling.
struct RubikBoostConfig
{
    RubikConfig base;
    /// Number of application request classes (hints in [0, numClasses)).
    int numClasses = 2;
    /// Minimum profiled samples per class before its table is trusted.
    std::size_t classWarmupSamples = 32;
};

/**
 * Class-aware Rubik controller.
 */
class RubikBoostController : public DvfsPolicy
{
  public:
    RubikBoostController(const DvfsModel &dvfs,
                         const RubikBoostConfig &config);

    void reset() override;
    double selectFrequency(const CoreView &core) override;
    void onCompletion(const CompletedRequest &done,
                      const CoreView &core) override;
    double nextPeriodicUpdate() const override { return nextUpdate_; }
    void periodicUpdate(const CoreView &core) override;

    bool warm() const { return mixTable_.has_value(); }
    double internalTarget() const { return internalTarget_; }
    /// Table serving the in-flight request (class table when available).
    const TargetTailTable *tableFor(int class_hint) const;

  private:
    const DvfsModel &dvfs_;
    RubikBoostConfig cfg_;

    Profiler mixProfiler_;
    std::vector<Profiler> classProfilers_;
    std::optional<TargetTailTable> mixTable_;
    std::vector<std::optional<TargetTailTable>> classTables_;

    double internalTarget_;
    RollingTail measured_;
    PiController pi_;
    double nextUpdate_;
    uint64_t completionsSeen_ = 0;
    uint64_t completionsAtLastBuild_ = 0;
};

} // namespace rubik

#endif // RUBIK_CORE_RUBIK_BOOST_H
