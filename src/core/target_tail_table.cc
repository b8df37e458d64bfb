#include "core/target_tail_table.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stats/percentile.h"
#include "util/error.h"

namespace rubik {

TargetTailTable
TargetTailTable::build(const DiscreteDistribution &compute,
                       const DiscreteDistribution &memory,
                       const TailTableConfig &config)
{
    return build(compute, memory, compute, memory, config);
}

TargetTailTable
TargetTailTable::build(const DiscreteDistribution &s0_compute,
                       const DiscreteDistribution &s0_memory,
                       const DiscreteDistribution &mix_compute,
                       const DiscreteDistribution &mix_memory,
                       const TailTableConfig &config)
{
    RUBIK_ASSERT(config.rows >= 1, "need at least one row");
    RUBIK_ASSERT(config.positions >= 1, "need at least one position");
    RUBIK_ASSERT(config.percentile > 0 && config.percentile < 1,
                 "percentile must be in (0,1)");
    const auto side = [](const DiscreteDistribution &s0,
                         const DiscreteDistribution &mix) {
        return Side{s0, mix, mix.mean(), mix.variance(), {}, {}};
    };
    return TargetTailTable(config, side(s0_compute, mix_compute),
                           side(s0_memory, mix_memory));
}

TargetTailTable::TargetTailTable(const TailTableConfig &config,
                                 Side compute, Side memory)
    : config_(config), zp_(inverseNormalCdf(config.percentile)),
      compute_(std::move(compute)), memory_(std::move(memory))
{
    // Rows are quantiles of the S_0 source: the in-flight request's
    // elapsed work is compared against its own class's distribution.
    const double n_rows = static_cast<double>(config.rows);
    rowBounds_.resize(config.rows);
    for (std::size_t r = 0; r < config.rows; ++r) {
        rowBounds_[r] =
            compute_.s0.quantile(static_cast<double>(r) / n_rows);
    }
    rowBounds_[0] = 0.0;

    // One chain per row *boundary*: row r's upper boundary is row r+1's
    // lower boundary, so with conservativeRowBounds rows+1 boundary
    // chains cover every row from both sides.
    const std::size_t n_bounds =
        config.conservativeRowBounds ? config.rows + 1 : config.rows;
    for (Side *side : {&compute_, &memory_}) {
        side->chains.resize(n_bounds);
        side->rows.resize(config.rows);
    }
}

const TargetTailTable::Chain &
TargetTailTable::extendChain(const Side &side, std::size_t b,
                             std::size_t position) const
{
    Chain &c = side.chains[b];
    if (c.tails.empty()) {
        // The boundary's conditional S_0|ω, at the b-th row quantile of
        // this side's own S_0 distribution.
        const double q =
            static_cast<double>(b) / static_cast<double>(config_.rows);
        const double omega = b == 0 ? 0.0 : side.s0.quantile(q);
        c.cur = side.s0.conditionalOnElapsed(omega);
        c.mean = c.cur->mean();
        c.var = c.cur->variance();
        c.tails.reserve(config_.positions);
        c.tails.push_back(c.cur->quantileUpper(config_.percentile));
    }

    ConvolveOptions opts;
    opts.useFft = config_.useFft;
    while (c.tails.size() <= position) {
        *c.cur = c.cur->convolveWith(side.mix, opts);
        ++convolutions_;
        // Adding nonnegative work cannot shrink a quantile; clamp out
        // discretization noise so the table is monotone in position
        // (the conservative direction).
        const double tail = c.cur->quantileUpper(config_.percentile);
        c.tails.push_back(std::max(tail, c.tails.back()));
    }
    if (c.tails.size() == config_.positions)
        c.cur.reset();
    return c;
}

void
TargetTailTable::fillRow(const Side &side, std::size_t row,
                         std::size_t position) const
{
    // Take the worse (larger-tail) of the row's two boundaries —
    // conservative for services whose conditional remaining work can
    // grow with elapsed work (heavy tails).
    const Chain &lo = extendChain(side, row, position);
    const Chain &hi = config_.conservativeRowBounds
                          ? extendChain(side, row + 1, position)
                          : lo;
    std::vector<double> &tails = side.rows[row];
    tails.reserve(config_.positions);
    for (std::size_t i = tails.size(); i <= position; ++i)
        tails.push_back(std::max(lo.tails[i], hi.tails[i]));
}

double
TargetTailTable::evaluate(const Side &side, std::size_t row,
                          std::size_t position) const
{
    RUBIK_ASSERT(row < side.rows.size(), "row out of range");
    const std::vector<double> &tails = side.rows[row];

    // A CLT position floors at the row's last exact entry, so it needs
    // the whole exact row.
    const std::size_t last = config_.positions - 1;
    if (tails.size() < config_.positions)
        fillRow(side, row, std::min(position, last));
    if (position <= last)
        return tails[position];

    // Gaussian CLT extension: S_i = S_0 + i * S. Clamped to the last
    // exact entry so the table stays monotone across the switchover.
    const Chain &lo = side.chains[row];
    const Chain &hi =
        side.chains[config_.conservativeRowBounds ? row + 1 : row];
    const double i = static_cast<double>(position);
    const double mean = std::max(lo.mean, hi.mean) + i * side.mean;
    const double var = std::max(lo.var, hi.var) + i * side.var;
    return std::max(mean + zp_ * std::sqrt(std::max(0.0, var)),
                    tails.back());
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

} // namespace rubik
