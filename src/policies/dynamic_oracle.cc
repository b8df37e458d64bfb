#include "policies/dynamic_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.h"

namespace rubik {

namespace {

/**
 * Incremental FIFO schedule state for the greedy reduction phase. Each
 * request runs at a grid level (index into the DVFS grid). Lowering one
 * request's level only affects its busy period (the effect stops
 * propagating at the first idle gap), so recomputation is local.
 */
class Schedule
{
  public:
    Schedule(const Trace &trace, const std::vector<double> &grid,
             std::size_t level, double bound, double percentile)
        : trace_(trace), grid_(grid), levels_(trace.size(), level),
          bound_(bound)
    {
        completions_.resize(trace.size());
        double prev = 0.0;
        for (std::size_t j = 0; j < trace_.size(); ++j) {
            const double start = std::max(trace_[j].arrivalTime, prev);
            completions_[j] = start + trace_[j].serviceTime(freq(j));
            prev = completions_[j];
        }
        violations_ = 0;
        for (std::size_t i = 0; i < trace_.size(); ++i)
            violations_ += isViolation(i);
        maxViolations_ = static_cast<std::size_t>(std::floor(
            (1.0 - percentile) * static_cast<double>(trace_.size())));
    }

    /// Try lowering request i by one grid level; keep the step if
    /// violations stay within budget, otherwise roll back. Returns
    /// whether the change stuck.
    bool tryStepDown(std::size_t i)
    {
        --levels_[i];

        // Recompute completions from i until they reconverge. Lowering
        // a frequency never shortens a completion, so the violation
        // count only grows along the walk: once it passes the budget
        // the step is rejected without finishing the walk.
        saved_.clear();
        double prev = i == 0 ? 0.0 : completions_[i - 1];
        std::size_t new_violations = violations_;
        for (std::size_t j = i; j < trace_.size(); ++j) {
            const double start = std::max(trace_[j].arrivalTime, prev);
            const double done = start + trace_[j].serviceTime(freq(j));
            if (j > i && done == completions_[j])
                break; // reconverged; the suffix is unchanged
            saved_.push_back(completions_[j]);
            new_violations -= isViolation(j);
            completions_[j] = done;
            new_violations += isViolation(j);
            if (new_violations > maxViolations_) {
                // Roll back: saved_ holds completions i, i+1, ...
                ++levels_[i];
                std::copy(saved_.begin(), saved_.end(),
                          completions_.begin() +
                              static_cast<std::ptrdiff_t>(i));
                return false;
            }
            prev = done;
        }
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
    std::vector<std::size_t> levels_;
    std::vector<double> completions_;
    std::vector<double> saved_; ///< One rollback buffer, reused.
    double bound_;
    std::size_t violations_ = 0;
    std::size_t maxViolations_ = 0;
};

/**
 * Binary max-heap of (saving, request) keys, ordered as std::pair
 * orders them, with savings and requests in two parallel arrays. Each
 * request holds at most one entry, so every key is distinct and any
 * correct max-heap pops the same sequence std::priority_queue would.
 */
class SavingsHeap
{
  public:
    /// Heapify the given entries at once (Floyd's bottom-up build).
    SavingsHeap(std::vector<double> savings,
                std::vector<std::size_t> requests)
        : savings_(std::move(savings)), requests_(std::move(requests))
    {
        for (std::size_t i = savings_.size() / 2; i-- > 0;)
            siftDown(i, savings_[i], requests_[i]);
    }

    bool empty() const { return savings_.empty(); }

    std::size_t topRequest() const { return requests_[0]; }

    void pop()
    {
        const double saving = savings_.back();
        const std::size_t request = requests_.back();
        savings_.pop_back();
        requests_.pop_back();
        if (!savings_.empty())
            siftDown(0, saving, request);
    }

    /// Pop the top and push (saving, request) in one sift.
    void replaceTop(double saving, std::size_t request)
    {
        siftDown(0, saving, request);
    }

  private:
    /// (sa, ra) < (sb, rb) in std::pair order, without branches.
    static bool less(double sa, std::size_t ra, double sb, std::size_t rb)
    {
        return (sa < sb) | ((sa == sb) & (ra < rb));
    }

    /// Place (saving, request) at `hole` or below it, moving larger
    /// children up.
    void siftDown(std::size_t hole, double saving, std::size_t request)
    {
        const std::size_t size = savings_.size();
        for (std::size_t child = 2 * hole + 1; child < size;
             child = 2 * hole + 1) {
            if (child + 1 < size)
                child += less(savings_[child], requests_[child],
                              savings_[child + 1], requests_[child + 1]);
            if (!less(saving, request, savings_[child], requests_[child]))
                break;
            savings_[hole] = savings_[child];
            requests_[hole] = requests_[child];
            hole = child;
        }
        savings_[hole] = saving;
        requests_[hole] = request;
    }

    std::vector<double> savings_;
    std::vector<std::size_t> requests_;
};

} // anonymous namespace

DynamicOracleResult
dynamicOracle(const Trace &trace, double latency_bound, double percentile,
              const DvfsModel &dvfs, const PowerModel &power)
{
    RUBIK_ASSERT(!trace.empty(), "empty trace");
    const auto &grid = dvfs.frequencies();

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
    Schedule sched(trace, grid, grid.size() - 1, latency_bound,
                   percentile);

    auto step_down_saving = [&](std::size_t i) -> double {
        const std::size_t idx = sched.level(i);
        if (idx == 0)
            return -1.0;
        return requestEnergy(trace[i], grid[idx], power) -
               requestEnergy(trace[i], grid[idx - 1], power);
    };

    // Each request has at most one heap entry, pushed after its own
    // last step, so the top's saving is always current. An accepted
    // step whose next saving is positive replaces the top in place;
    // anything else pops it (rejected requests are simply dropped).
    std::vector<double> savings;
    std::vector<std::size_t> requests;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const double s = step_down_saving(i);
        if (s > 0.0) {
            savings.push_back(s);
            requests.push_back(i);
        }
    }
    SavingsHeap heap(std::move(savings), std::move(requests));
    while (!heap.empty()) {
        const std::size_t i = heap.topRequest();
        if (sched.tryStepDown(i)) {
            const double next = step_down_saving(i);
            if (next > 0.0) {
                heap.replaceTop(next, i);
                continue;
            }
        }
        heap.pop();
    }

    DynamicOracleResult result;
    result.frequencies.resize(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        result.frequencies[i] = sched.freq(i);
    result.replay = replayFifo(trace, result.frequencies, power);
    return result;
}

} // namespace rubik
