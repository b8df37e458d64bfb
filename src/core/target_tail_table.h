#ifndef RUBIK_CORE_TARGET_TAIL_TABLE_H
#define RUBIK_CORE_TARGET_TAIL_TABLE_H

/**
 * @file
 * Target tail tables (Fig. 5 of the paper).
 *
 * The tables precompute, for each elapsed-work row ω and queue position i,
 * the target-percentile tail of the completion distribution:
 *
 *   - tail compute cycles c_i: percentile of S_i = S_0|ω ⊛ S ⊛ ... ⊛ S,
 *   - tail memory time m_i:    percentile of M_i = M_0|ω ⊛ M ⊛ ... ⊛ M,
 *
 * where S_0|ω conditions the service-cycle distribution on the ω cycles
 * the in-flight request has already executed. Rows are octiles of the
 * service distribution (the paper's implementation uses octiles; the count
 * is configurable for ablations). For queue positions i >= `positions`
 * (paper: 16), Lyapunov's CLT gives a Gaussian approximation:
 * mean E[S_0] + i*E[S], variance var[S_0] + i*var[S], so the tails come
 * from the precomputed normal quantile instead of long convolution chains.
 */

#include <cstddef>
#include <optional>
#include <vector>

#include "core/distribution.h"

namespace rubik {

/// Table shape and numerical options.
struct TailTableConfig
{
    std::size_t rows = 8;        ///< Elapsed-work rows (paper: octiles).
    std::size_t positions = 16;  ///< Exact columns before the CLT kicks in.
    double percentile = 0.95;    ///< Target tail percentile.
    std::size_t buckets = 128;   ///< Distribution resolution.
    bool useFft = true;          ///< FFT-accelerated convolutions.
    /// Evaluate each row's conditional at both row boundaries and keep the
    /// larger tail (guards against rows where conditioning on more elapsed
    /// work lengthens the remaining-work tail, e.g. heavy-tailed apps).
    /// The paper's tables condition at the row's lower bound only (Fig. 5);
    /// the extra margin costs power, so this is off by default and
    /// evaluated as an ablation.
    bool conservativeRowBounds = false;
};

/**
 * Precomputed c_i / m_i tails. Rebuilt periodically (every 100 ms) from
 * freshly profiled distributions; queried on every request arrival and
 * completion.
 */
class TargetTailTable
{
  public:
    /**
     * Build the tables from the profiled compute-cycle distribution
     * (values in cycles) and memory-time distribution (values in
     * seconds).
     */
    static TargetTailTable build(const DiscreteDistribution &compute,
                                 const DiscreteDistribution &memory,
                                 const TailTableConfig &config);

    /**
     * Class-aware build (the Rubik+Adrenaline hybrid, Sec. 5.2's
     * suggested combination): the in-flight request S_0 is drawn from a
     * *class-specific* distribution, while queued requests remain draws
     * from the overall mixture: S_i = S_0^class + i * S^mix.
     */
    static TargetTailTable build(const DiscreteDistribution &s0_compute,
                                 const DiscreteDistribution &s0_memory,
                                 const DiscreteDistribution &mix_compute,
                                 const DiscreteDistribution &mix_memory,
                                 const TailTableConfig &config);

    /**
     * Fused batch build: the mixture table plus one class-conditioned
     * table per non-null (class_compute[k], class_memory[k]) pair, all
     * in one pass. The mixture moments and the percentile quantile are
     * computed once and shared across every member instead of once per
     * build() call. Slot 0 of the result is the mixture table; slot
     * 1+k the class-k table, disengaged where the inputs were null.
     * Each table is bitwise identical to the equivalent individual
     * build() call.
     */
    static std::vector<std::optional<TargetTailTable>>
    buildBatch(const DiscreteDistribution &mix_compute,
               const DiscreteDistribution &mix_memory,
               const std::vector<const DiscreteDistribution *>
                   &class_compute,
               const std::vector<const DiscreteDistribution *>
                   &class_memory,
               const TailTableConfig &config);

    /// Row for a request that has executed `omega` cycles so far.
    std::size_t rowForElapsed(double omega) const;

    /**
     * The row search on an explicit non-decreasing bounds vector: index
     * of the last bound <= omega (0 when omega precedes every bound).
     * Exposed so tests can pin boundary and duplicate-bound behavior on
     * handcrafted inputs; rowForElapsed() delegates to it.
     */
    static std::size_t rowForBounds(const std::vector<double> &bounds,
                                    double omega);

    /**
     * Tail compute cycles c_i until completion of the request at queue
     * position i (0 = in service), for the given row. Positions beyond
     * the table use the Gaussian extension.
     */
    double tailCycles(std::size_t row, std::size_t position) const;

    /// Tail memory time m_i (seconds); same indexing as tailCycles.
    double tailMemTime(std::size_t row, std::size_t position) const;

    const TailTableConfig &config() const { return config_; }

    /// ω lower bound of each row (for tests/introspection).
    const std::vector<double> &rowBounds() const { return rowBounds_; }

  private:
    TargetTailTable() = default;

    /// Shared-mixture terms precomputed once per build or batch.
    struct MixTerms
    {
        double zp, meanC, varC, meanM, varM;
    };

    static MixTerms mixTerms(const DiscreteDistribution &mix_compute,
                             const DiscreteDistribution &mix_memory,
                             const TailTableConfig &config);

    static TargetTailTable
    buildImpl(const DiscreteDistribution &s0_compute,
              const DiscreteDistribution &s0_memory,
              const DiscreteDistribution &mix_compute,
              const DiscreteDistribution &mix_memory,
              const TailTableConfig &config, const MixTerms &terms);

    TailTableConfig config_;
    std::vector<double> rowBounds_;

    // [row][position] exact tails.
    std::vector<std::vector<double>> cycles_;
    std::vector<std::vector<double>> memTime_;

    // Gaussian-extension parameters.
    std::vector<double> meanC0_, varC0_, meanM0_, varM0_;
    double meanC_ = 0.0, varC_ = 0.0;
    double meanM_ = 0.0, varM_ = 0.0;
    double zp_ = 0.0;
};

} // namespace rubik

#endif // RUBIK_CORE_TARGET_TAIL_TABLE_H
