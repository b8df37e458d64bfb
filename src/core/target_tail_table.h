#ifndef RUBIK_CORE_TARGET_TAIL_TABLE_H
#define RUBIK_CORE_TARGET_TAIL_TABLE_H

/**
 * @file
 * Target tail tables (Fig. 5 of the paper).
 *
 * The tables hold, for each elapsed-work row ω and queue position i,
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
 *
 * Entries are computed on demand. A decision reads one row, the
 * in-flight request's, at positions 0 to queue depth - 1, so a table
 * evaluates a row's convolution chain only as far as some query has
 * reached, and never evaluates the rows nobody reads. Each entry comes
 * from the same operations, in the same order, as a full eager build,
 * so every value is bit-for-bit the one an eager table would hold.
 */

#include <cstddef>
#include <cstdint>
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
 * c_i / m_i tails over a snapshot of freshly profiled distributions.
 * Rebuilt periodically (every 100 ms); queried on every request arrival
 * and completion.
 *
 * build() only takes the snapshot; tailCycles() and tailMemTime()
 * compute an entry the first time it is read and memoize it in the
 * table. A table may therefore be queried from only one thread at a
 * time: each controller owns its own tables.
 */
class TargetTailTable
{
  public:
    /**
     * Snapshot the profiled compute-cycle distribution (values in
     * cycles) and memory-time distribution (values in seconds).
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
    double tailCycles(std::size_t row, std::size_t position) const
    {
        return tail(compute_, row, position);
    }

    /// Tail memory time m_i (seconds); same indexing as tailCycles.
    double tailMemTime(std::size_t row, std::size_t position) const
    {
        return tail(memory_, row, position);
    }

    const TailTableConfig &config() const { return config_; }

    /// ω lower bound of each row (for tests/introspection).
    const std::vector<double> &rowBounds() const { return rowBounds_; }

    /// Convolution chain steps this table has run so far.
    uint64_t convolutions() const { return convolutions_; }

  private:
    /// One row boundary's convolution chain: tails of S_0|ω ⊛ S^(⊛i).
    struct Chain
    {
        /// Exact tails for positions 0 .. size()-1; empty until started.
        std::vector<double> tails;
        /// Distribution behind tails.back(); dropped once the chain
        /// reaches its last exact position.
        std::optional<DiscreteDistribution> cur;
        /// Moments of the conditional S_0|ω (the CLT extension's S_0).
        double mean = 0.0;
        double var = 0.0;
    };

    /// One resource's half of the table (compute cycles or memory time):
    /// the snapshot it is computed from and the memo filled on demand.
    struct Side
    {
        DiscreteDistribution s0;  ///< In-flight request's distribution.
        DiscreteDistribution mix; ///< Queued requests' distribution.
        double mean = 0.0;        ///< Mixture moments (CLT extension).
        double var = 0.0;
        /// Chains per row boundary (rows + 1 when conservativeRowBounds).
        mutable std::vector<Chain> chains;
        /// Per row: the max over its boundaries' tails, as far as read.
        mutable std::vector<std::vector<double>> rows;
    };

    TargetTailTable(const TailTableConfig &config, Side compute,
                    Side memory);

    /// The memoized entry when it has been computed, else evaluate().
    double tail(const Side &side, std::size_t row,
                std::size_t position) const
    {
        if (row < side.rows.size() && position < side.rows[row].size())
            return side.rows[row][position];
        return evaluate(side, row, position);
    }
    /// Compute (and memoize) an entry no query has reached yet.
    double evaluate(const Side &side, std::size_t row,
                    std::size_t position) const;
    /// Extend `row`'s exact tails through `position` (< positions).
    void fillRow(const Side &side, std::size_t row,
                 std::size_t position) const;
    /// Start boundary `b`'s chain if needed, then extend it through
    /// `position`.
    const Chain &extendChain(const Side &side, std::size_t b,
                             std::size_t position) const;

    TailTableConfig config_;
    std::vector<double> rowBounds_;
    double zp_ = 0.0;
    Side compute_;
    Side memory_;
    mutable uint64_t convolutions_ = 0;
};

} // namespace rubik

#endif // RUBIK_CORE_TARGET_TAIL_TABLE_H
