#include "policies/dynamic_oracle.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "policies/savings_queue.h"
#include "stats/percentile.h"
#include "util/error.h"

namespace rubik {

namespace {

/**
 * Incremental FIFO schedule state for the greedy reduction phase. Each
 * request runs at a grid level (index into the DVFS grid) and caches
 * its service time there, so the walk adds instead of dividing.
 * Lowering one request's level only affects its busy period (the
 * effect stops propagating at the first idle gap), so recomputation is
 * local.
 */
class Schedule
{
  public:
    Schedule(const Trace &trace, const std::vector<double> &grid,
             std::size_t level, double bound, double percentile)
        : trace_(trace), grid_(grid),
          levels_(trace.size(), static_cast<std::uint16_t>(level)),
          services_(trace.size()), completions_(trace.size()),
          bound_(bound)
    {
        double prev = 0.0;
        for (std::size_t j = 0; j < trace_.size(); ++j) {
            services_[j] = trace_[j].serviceTime(grid_[level]);
            const double start = std::max(trace_[j].arrivalTime, prev);
            completions_[j] = start + services_[j];
            prev = completions_[j];
        }
        for (std::size_t i = 0; i < trace_.size(); ++i)
            violations_ += isViolation(i);
        // The nearest-rank q-quantile stays within the bound while at
        // most this many latencies exceed it (meetsTailBound's budget).
        maxViolations_ =
            trace_.size() - 1 - nearestRankIndex(trace_.size(), percentile);
    }

    /// Try lowering request i (level > 0) by one grid level; keep the
    /// step if violations stay within budget, otherwise roll back.
    /// Returns whether the change stuck.
    bool tryStepDown(std::size_t i)
    {
        const double service =
            trace_[i].serviceTime(grid_[levels_[i] - 1]);

        // Recompute completions from i until they reconverge. Lowering
        // a frequency never shortens a completion, so the violation
        // count only grows along the walk: once it passes the budget
        // the step is rejected without finishing the walk.
        std::size_t new_violations = violations_;
        double done =
            std::max(trace_[i].arrivalTime,
                     i == 0 ? 0.0 : completions_[i - 1]) +
            service;
        for (std::size_t j = i;;) {
            new_violations -= isViolation(j);
            completions_[j] = done;
            new_violations += isViolation(j);
            if (new_violations > maxViolations_) {
                // Roll back: completions i..j held the FIFO recurrence
                // over the old service times (services_[i] is still the
                // old one), so replaying it restores their bits.
                double prev = i == 0 ? 0.0 : completions_[i - 1];
                for (std::size_t k = i; k <= j; ++k) {
                    prev = std::max(trace_[k].arrivalTime, prev) +
                           services_[k];
                    completions_[k] = prev;
                }
                return false;
            }
            if (++j == trace_.size())
                break;
            const double next =
                std::max(trace_[j].arrivalTime, done) + services_[j];
            if (next == completions_[j])
                break; // reconverged; the suffix is unchanged
            done = next;
        }
        --levels_[i];
        services_[i] = service;
        violations_ = new_violations;
        return true;
    }

    std::size_t level(std::size_t i) const { return levels_[i]; }

    double freq(std::size_t i) const { return grid_[levels_[i]]; }

  private:
    bool isViolation(std::size_t i) const
    {
        return completions_[i] - trace_[i].arrivalTime > bound_;
    }

    const Trace &trace_;
    const std::vector<double> &grid_;
    std::vector<std::uint16_t> levels_; ///< Small, for cache's sake.
    std::vector<double> services_;      ///< Service time at levels_.
    std::vector<double> completions_;
    double bound_;
    std::size_t violations_ = 0;
    std::size_t maxViolations_ = 0;
};

} // anonymous namespace

DynamicOracleResult
dynamicOracle(const Trace &trace, double latency_bound, double percentile,
              const DvfsModel &dvfs, const PowerModel &power)
{
    RUBIK_ASSERT(!trace.empty(), "empty trace");
    const auto &grid = dvfs.frequencies();
    RUBIK_ASSERT(grid.size() <= 65536,
                 "DVFS grid too fine for DynamicOracle's level index");
    const std::size_t top = grid.size() - 1;

    // Start from maximum frequency everywhere (the minimum-latency
    // schedule), then progressively reduce frequencies while at most a
    // (1 - percentile) fraction of requests sits above the bound,
    // prioritizing the reductions that save the most energy (Sec. 5.3).
    // Starting at the top keeps slack distributed across the queue; a
    // per-request myopic minimum would leave every request exactly at
    // the bound and cascade violations onto its successors.
    //
    // Greedy step-downs, largest energy saving first, while the
    // violation budget holds. A request that fails to step down stays
    // blocked: later reductions only increase latencies, so a rejected
    // step can never become admissible.
    Schedule sched(trace, grid, top, latency_bound, percentile);
    if (top > 0) {
        std::vector<RequestEnergyAt> energy_at;
        for (double f : grid)
            energy_at.emplace_back(f, power);
        // Each request's energy one level below its own, so a step's
        // saving costs one energy evaluation.
        std::vector<double> energy_below(trace.size());
        SavingsQueue queue(trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            energy_below[i] = energy_at[top - 1](trace[i]);
            const double s = energy_at[top](trace[i]) - energy_below[i];
            if (s > 0.0)
                queue.push(s, i);
        }

        // Each request has at most one entry, pushed after its own last
        // step, so a popped saving is always current. Every other entry
        // sits below the one just popped, so a next saving that is not
        // below it would be the largest key and pop next: that step is
        // taken at once. Anything lower is pushed, which keeps the
        // queue's monotone contract; a rejected step or a nonpositive
        // saving drops the request.
        while (!queue.empty()) {
            const auto [popped, i] = queue.pop();
            while (sched.tryStepDown(i)) {
                const std::size_t level = sched.level(i);
                if (level == 0)
                    break;
                const double energy = energy_below[i];
                energy_below[i] = energy_at[level - 1](trace[i]);
                const double next = energy - energy_below[i];
                if (!(next > 0.0))
                    break;
                if (next < popped) {
                    queue.push(next, i);
                    break;
                }
            }
        }
    }

    DynamicOracleResult result;
    result.frequencies.resize(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        result.frequencies[i] = sched.freq(i);
    result.replay = replayFifo(trace, result.frequencies, power);
    return result;
}

} // namespace rubik
