#include "core/target_tail_table.h"

#include <algorithm>
#include <cmath>

#include "stats/percentile.h"
#include "util/error.h"

namespace rubik {

namespace {

/**
 * Compute one row's exact tails: percentiles of the convolution chain
 * S_0 ⊛ S^(⊛i) for i = 0..positions-1.
 */
std::vector<double>
tailChain(const DiscreteDistribution &s0, const DiscreteDistribution &s,
          const TailTableConfig &cfg)
{
    ConvolveOptions opts;
    opts.useFft = cfg.useFft;

    std::vector<double> tails;
    tails.reserve(cfg.positions);
    DiscreteDistribution cur = s0;
    for (std::size_t i = 0; i < cfg.positions; ++i) {
        double tail = cur.quantileUpper(cfg.percentile);
        // Adding nonnegative work cannot shrink a quantile; clamp out
        // discretization noise so the table is monotone in position
        // (the conservative direction).
        if (i > 0)
            tail = std::max(tail, tails.back());
        tails.push_back(tail);
        if (i + 1 < cfg.positions)
            cur = cur.convolveWith(s, opts);
    }
    return tails;
}

} // anonymous namespace

TargetTailTable
TargetTailTable::build(const DiscreteDistribution &compute,
                       const DiscreteDistribution &memory,
                       const TailTableConfig &config)
{
    return build(compute, memory, compute, memory, config);
}

TargetTailTable::MixTerms
TargetTailTable::mixTerms(const DiscreteDistribution &mix_compute,
                          const DiscreteDistribution &mix_memory,
                          const TailTableConfig &config)
{
    RUBIK_ASSERT(config.rows >= 1, "need at least one row");
    RUBIK_ASSERT(config.positions >= 1, "need at least one position");
    RUBIK_ASSERT(config.percentile > 0 && config.percentile < 1,
                 "percentile must be in (0,1)");
    MixTerms terms;
    terms.zp = inverseNormalCdf(config.percentile);
    terms.meanC = mix_compute.mean();
    terms.varC = mix_compute.variance();
    terms.meanM = mix_memory.mean();
    terms.varM = mix_memory.variance();
    return terms;
}

TargetTailTable
TargetTailTable::build(const DiscreteDistribution &s0_compute,
                       const DiscreteDistribution &s0_memory,
                       const DiscreteDistribution &mix_compute,
                       const DiscreteDistribution &mix_memory,
                       const TailTableConfig &config)
{
    return buildImpl(s0_compute, s0_memory, mix_compute, mix_memory,
                     config, mixTerms(mix_compute, mix_memory, config));
}

std::vector<std::optional<TargetTailTable>>
TargetTailTable::buildBatch(
    const DiscreteDistribution &mix_compute,
    const DiscreteDistribution &mix_memory,
    const std::vector<const DiscreteDistribution *> &class_compute,
    const std::vector<const DiscreteDistribution *> &class_memory,
    const TailTableConfig &config)
{
    RUBIK_ASSERT(class_compute.size() == class_memory.size(),
                 "class compute/memory lists must match");
    const MixTerms terms = mixTerms(mix_compute, mix_memory, config);

    std::vector<std::optional<TargetTailTable>> out;
    out.reserve(1 + class_compute.size());
    out.emplace_back(buildImpl(mix_compute, mix_memory, mix_compute,
                               mix_memory, config, terms));
    for (std::size_t k = 0; k < class_compute.size(); ++k) {
        if (!class_compute[k] && !class_memory[k]) {
            out.emplace_back(std::nullopt);
            continue;
        }
        RUBIK_ASSERT(class_compute[k] && class_memory[k],
                     "class compute/memory must be paired");
        out.emplace_back(buildImpl(*class_compute[k], *class_memory[k],
                                   mix_compute, mix_memory, config,
                                   terms));
    }
    return out;
}

TargetTailTable
TargetTailTable::buildImpl(const DiscreteDistribution &s0_compute,
                           const DiscreteDistribution &s0_memory,
                           const DiscreteDistribution &mix_compute,
                           const DiscreteDistribution &mix_memory,
                           const TailTableConfig &config,
                           const MixTerms &terms)
{
    const DiscreteDistribution &compute = mix_compute;
    const DiscreteDistribution &memory = mix_memory;

    TargetTailTable t;
    t.config_ = config;
    t.zp_ = terms.zp;
    t.meanC_ = terms.meanC;
    t.varC_ = terms.varC;
    t.meanM_ = terms.meanM;
    t.varM_ = terms.varM;

    // Rows are quantiles of the S_0 source: the in-flight request's
    // elapsed work is compared against its own class's distribution.
    const double n_rows = static_cast<double>(config.rows);
    t.rowBounds_.resize(config.rows);
    for (std::size_t r = 0; r < config.rows; ++r) {
        t.rowBounds_[r] =
            s0_compute.quantile(static_cast<double>(r) / n_rows);
    }
    t.rowBounds_[0] = 0.0;

    t.cycles_.resize(config.rows);
    t.memTime_.resize(config.rows);
    t.meanC0_.resize(config.rows);
    t.varC0_.resize(config.rows);
    t.meanM0_.resize(config.rows);
    t.varM0_.resize(config.rows);

    // Evaluate the conditional chains once per row *boundary*: row r's
    // upper boundary is row r+1's lower boundary, so rows+1 boundary
    // chains cover every row from both sides at roughly half the cost of
    // evaluating two chains per row.
    const std::size_t n_bounds =
        config.conservativeRowBounds ? config.rows + 1 : config.rows;

    struct BoundaryChain
    {
        std::vector<double> cyc, mem;
        double meanC, varC, meanM, varM;
    };
    std::vector<BoundaryChain> bounds(n_bounds);

    for (std::size_t b = 0; b < n_bounds; ++b) {
        const double q = static_cast<double>(b) / n_rows;
        const double w = b == 0 ? 0.0 : s0_compute.quantile(q);
        const double m = b == 0 ? 0.0 : s0_memory.quantile(q);
        const DiscreteDistribution s0 = s0_compute.conditionalOnElapsed(w);
        const DiscreteDistribution m0 = s0_memory.conditionalOnElapsed(m);
        bounds[b].cyc = tailChain(s0, compute, config);
        bounds[b].mem = tailChain(m0, memory, config);
        bounds[b].meanC = s0.mean();
        bounds[b].varC = s0.variance();
        bounds[b].meanM = m0.mean();
        bounds[b].varM = m0.variance();
    }

    for (std::size_t r = 0; r < config.rows; ++r) {
        // Take the worse (larger-tail) of the row's two boundaries —
        // conservative for services whose conditional remaining work can
        // grow with elapsed work (heavy tails).
        const BoundaryChain &lo = bounds[r];
        const BoundaryChain &hi =
            config.conservativeRowBounds ? bounds[r + 1] : bounds[r];

        t.cycles_[r].resize(config.positions);
        t.memTime_[r].resize(config.positions);
        for (std::size_t i = 0; i < config.positions; ++i) {
            t.cycles_[r][i] = std::max(lo.cyc[i], hi.cyc[i]);
            t.memTime_[r][i] = std::max(lo.mem[i], hi.mem[i]);
        }
        t.meanC0_[r] = std::max(lo.meanC, hi.meanC);
        t.varC0_[r] = std::max(lo.varC, hi.varC);
        t.meanM0_[r] = std::max(lo.meanM, hi.meanM);
        t.varM0_[r] = std::max(lo.varM, hi.varM);
    }
    return t;
}

std::size_t
TargetTailTable::rowForBounds(const std::vector<double> &bounds,
                              double omega)
{
    // Last row whose lower bound is <= omega. The bounds are
    // non-decreasing (quantiles of increasing q), so the first bound
    // strictly above omega ends the run of rows the old linear scan
    // would have accepted; on duplicate bounds this picks the last of
    // the run, exactly as the scan did.
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), omega);
    if (it == bounds.begin())
        return 0;
    return static_cast<std::size_t>(it - bounds.begin()) - 1;
}

std::size_t
TargetTailTable::rowForElapsed(double omega) const
{
    return rowForBounds(rowBounds_, omega);
}

double
TargetTailTable::tailCycles(std::size_t row, std::size_t position) const
{
    RUBIK_ASSERT(row < cycles_.size(), "row out of range");
    if (position < config_.positions)
        return cycles_[row][position];
    // Gaussian CLT extension: S_i = S_0 + i * S. Clamped to the last
    // exact entry so the table stays monotone across the switchover.
    const double i = static_cast<double>(position);
    const double mean = meanC0_[row] + i * meanC_;
    const double var = varC0_[row] + i * varC_;
    return std::max(mean + zp_ * std::sqrt(std::max(0.0, var)),
                    cycles_[row].back());
}

double
TargetTailTable::tailMemTime(std::size_t row, std::size_t position) const
{
    RUBIK_ASSERT(row < memTime_.size(), "row out of range");
    if (position < config_.positions)
        return memTime_[row][position];
    const double i = static_cast<double>(position);
    const double mean = meanM0_[row] + i * meanM_;
    const double var = varM0_[row] + i * varM_;
    return std::max(mean + zp_ * std::sqrt(std::max(0.0, var)),
                    memTime_[row].back());
}

} // namespace rubik
