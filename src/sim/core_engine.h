#ifndef RUBIK_SIM_CORE_ENGINE_H
#define RUBIK_SIM_CORE_ENGINE_H

/**
 * @file
 * Single-core execution engine: fluid service model, FIFO queue, per-core
 * DVFS with transition latency, and idle/sleep power-state accounting.
 *
 * The engine is a resumable state machine driven by a simulation loop:
 * the driver asks for the next internal event time (completion or DVFS
 * transition end), advances the engine to event times, and processes
 * events. This split lets the same engine power both the single-core
 * Rubik experiments and the multi-core colocation experiments, where a
 * coordinator (and batch work) sits between cores.
 *
 * Requests live in structure-of-arrays lanes rather than per-request
 * objects: the running request plus the FIFO queue form one contiguous
 * window [head, tail) over parallel arrays (arrival time, remaining
 * cycles, remaining memory time, ...). Admission appends at the tail,
 * completion advances the head — no element is ever copied between a
 * queue and a "running" slot — and policies read the window zero-copy
 * through a CoreView (sim/core_view.h). Per-frequency power constants
 * and the residency index are memoized on frequency changes, so the
 * per-event hot path does no grid scans or V/f interpolation; the
 * arithmetic is kept expression-for-expression identical to the
 * original per-object engine, and soa_equivalence_test pins the two
 * bitwise against a reference implementation.
 *
 * Fluid service model: a request needs C compute cycles and M seconds of
 * memory-bound time; at frequency f the remaining service time is always
 * remC/f + remM, and both components deplete proportionally. This matches
 * the paper's service model S = C + M*f (work in cycles at frequency f)
 * and makes frequency changes mid-request well defined.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "sim/core_view.h"
#include "sim/request.h"
#include "util/error.h"

namespace rubik {

/// What the core does while a DVFS transition is in flight.
enum class TransitionMode
{
    OldFrequency, ///< Keep executing at the old frequency (FIVR-like).
    Stalled,      ///< Halt execution during the transition.
};

/// Engine configuration.
struct CoreEngineConfig
{
    double initialFrequency = 0.0;     ///< 0 -> DVFS nominal.
    TransitionMode transitionMode = TransitionMode::OldFrequency;
    /// Extra latency when dispatching into a core that slept past the C3
    /// entry threshold (models L1/L2 refill after the C3 flush). Default 0
    /// keeps the event engine exactly consistent with analytic replay.
    double wakeLatency = 0.0;
    bool recordTimeline = false;       ///< Record (time, freq) changes.
};

/// Accumulated per-core statistics and energy.
struct CoreStats
{
    double busyTime = 0.0;            ///< Seconds serving requests.
    double stallTime = 0.0;           ///< Portion of busyTime memory-bound.
    double idleTime = 0.0;            ///< Seconds in C1.
    double sleepTime = 0.0;           ///< Seconds in C3.
    uint64_t numTransitions = 0;      ///< Completed DVFS transitions.
    EnergyBreakdown energy;           ///< Core components only.
    std::vector<double> freqResidency; ///< Busy seconds per grid frequency.
    /// Static (leakage) share of energy.coreActive: the kLeak * V(f)
    /// term integrated over busy time. A pure addition alongside the
    /// legacy accumulators — the thermal model scales this component by
    /// its temperature-dependent leakage multiplier without perturbing
    /// any existing sum.
    double staticBusyEnergy = 0.0;
};

/**
 * One core: FIFO request window + DVFS state + accounting.
 */
class CoreEngine
{
  public:
    CoreEngine(const DvfsModel &dvfs, const PowerModel &power,
               const CoreEngineConfig &config = CoreEngineConfig());

    /// Current simulated time (s).
    double now() const { return now_; }

    /// @name Request flow
    /// @{

    /**
     * Admit a request at the current time (request.arrivalTime must equal
     * now()). Dispatches immediately if the core is idle.
     */
    void enqueue(const Request &request);

    /// A request is in service. The window is never non-empty with an
    /// idle core: admission and completion dispatch eagerly.
    bool busy() const { return head_ != tail_; }

    /// Waiting requests (excludes the one in service).
    std::size_t queueLength() const
    {
        const std::size_t n = tail_ - head_;
        return n > 0 ? n - 1 : 0;
    }

    /// Zero-copy policy snapshot of the in-flight window and DVFS state.
    CoreView view() const;

    /// Compute cycles the running request has already executed (ω).
    double elapsedCycles() const
    {
        return busy() ? compute_[head_] - remCycles_[head_] : 0.0;
    }

    /// Memory-bound time the running request has already spent.
    double elapsedMemTime() const
    {
        return busy() ? memTime_[head_] - remMem_[head_] : 0.0;
    }

    /// @}
    /// @name Event-loop interface
    /// @{

    /**
     * Time of the next internal event (completion or transition end);
     * +inf when idle with no transition pending.
     */
    double nextEventTime() const;

    /**
     * Advance simulated time to t (t must not exceed nextEventTime()),
     * depleting the in-service request and accumulating time/energy.
     */
    void advanceTo(double t);

    /**
     * Process any internal events due at the current time. Returns the
     * completed request if a completion fired (at most one per call:
     * the follow-on request's completion is strictly later).
     */
    std::optional<CompletedRequest> processEvents();

    /// @}
    /// @name DVFS
    /// @{

    /**
     * Request a frequency change. The frequency must be on the DVFS grid
     * (use DvfsModel::quantizeUp/Down). Applies immediately when the
     * model's transition latency is zero, otherwise after the latency;
     * a request during an in-flight transition replaces the target and
     * restarts the timer (serialized FIVR transitions).
     */
    void requestFrequency(double freq);

    /// Currently effective frequency.
    double currentFrequency() const { return freq_; }

    /// Target of the in-flight transition (== current if none).
    double targetFrequency() const
    {
        return inTransition() ? pendingFreq_ : freq_;
    }

    bool inTransition() const;

    /// @}

    const CoreStats &stats() const { return stats_; }

    /// (time, frequency) change log; empty unless recordTimeline.
    const std::vector<std::pair<double, double>> &timeline() const
    {
        return timeline_;
    }

    const DvfsModel &dvfs() const { return dvfs_; }
    const PowerModel &power() const { return power_; }

  private:
    static constexpr double kTimeEps = 1e-12;
    static constexpr double kInf =
        std::numeric_limits<double>::infinity();
    /// Consumed-prefix length that triggers lane compaction.
    static constexpr std::size_t kCompactAt = 4096;

    /// Remaining service time of the running request at frequency f.
    double remainingServiceTime(double freq) const;

    /// Start serving the window head (core must have just gone busy or
    /// completed its previous request).
    void dispatchHead();

    /// Double every lane (admission found them full).
    void growLanes();

    /// Reclaim consumed lane slots once the dead prefix dominates.
    void compact();

    /// Recompute the memoized per-frequency constants after freq_ moved.
    void refreshFreqDerived();

    /// Slow path of requestFrequency: actually change or schedule.
    void applyFrequency(double freq);

    /// Account energy for an idle interval [t0, t1).
    void accountIdle(double t0, double t1);

    const DvfsModel &dvfs_;
    const PowerModel &power_;
    CoreEngineConfig config_;

    double now_ = 0.0;
    double freq_ = 0.0;
    double pendingFreq_ = 0.0;
    double transitionEnd_ = -1.0;

    // Request lanes; [head_, tail_) is the live window, index head_ the
    // in-service request.
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::vector<double> arrival_;
    std::vector<double> compute_;   ///< Total compute demand (cycles).
    std::vector<double> memTime_;   ///< Total memory-bound time (s).
    std::vector<double> remCycles_; ///< Remaining compute (cycles).
    std::vector<double> remMem_;    ///< Remaining memory time (s).
    std::vector<double> start_;     ///< Service start time (s).
    std::vector<uint64_t> id_;
    std::vector<int> classHint_;
    std::vector<int> queueLen_;     ///< System occupancy at arrival.

    double runningEnergy_ = 0.0;   ///< Core energy spent on running request.
    double wakeRemaining_ = 0.0;   ///< Pending wake latency before service.
    double idleStart_ = 0.0;

    // Memoized per-frequency constants (refreshed on frequency changes):
    // active power is dynBase_ * activity + statPow_, grouped exactly as
    // PowerModel::coreActivePower computes it.
    double dynBase_ = 0.0;  ///< ceff * V(f) * V(f) * f.
    double statPow_ = 0.0;  ///< kLeak * V(f).
    std::size_t freqIndex_ = 0; ///< Residency-histogram slot of freq_.

    // Fixed power-model constants, hoisted out of the event path.
    double stallActivity_ = 0.0;
    double c3Entry_ = 0.0;
    double c1Power_ = 0.0;
    double c3Power_ = 0.0;

    /// Memoized remCycles_[head_] / freq_ + remMem_[head_] (the exact
    /// expression the fluid path evaluates); negative when stale. Reused
    /// across nextEventTime / advanceTo / processEvents so the hot loop
    /// divides once per depletion instead of once per call.
    mutable double svcLeftCache_ = -1.0;
    /// Memoized remMem_[head_] / svcLeftCache_ (0 when the service time
    /// is zero). Valid exactly when svcLeftCache_ is: both divisions see
    /// the same operands, so caching the quotient is bitwise-neutral.
    mutable double stallFracCache_ = 0.0;

    CoreStats stats_;
    std::vector<std::pair<double, double>> timeline_;
};

// ---------------------------------------------------------------------------
// Inline hot path. These run a few times per simulated request; defining
// them here lets the simulation loop keep engine state in registers
// across the nextEventTime / advanceTo / processEvents sequence. The
// arithmetic (order, grouping) must not change: outputs are pinned
// bitwise by soa_equivalence_test and the golden CSVs.
// ---------------------------------------------------------------------------

inline double
CoreEngine::remainingServiceTime(double freq) const
{
    if (!busy())
        return kInf;
    // wake + remC/f + remM, left-associated. With wake == 0 the leading
    // add is exact (0.0 + x == x for x >= 0), so the cached tail is the
    // full result.
    if (wakeRemaining_ > 0.0 || freq != freq_)
        return wakeRemaining_ + remCycles_[head_] / freq +
               remMem_[head_];
    if (svcLeftCache_ < 0.0) {
        const double rem_mem = remMem_[head_];
        svcLeftCache_ = remCycles_[head_] / freq_ + rem_mem;
        stallFracCache_ =
            svcLeftCache_ > 0.0 ? rem_mem / svcLeftCache_ : 0.0;
    }
    return svcLeftCache_;
}

inline bool
CoreEngine::inTransition() const
{
    return transitionEnd_ > now_ + kTimeEps;
}

inline CoreView
CoreEngine::view() const
{
    CoreView v;
    v.now = now_;
    v.frequency = freq_;
    v.elapsedCycles = elapsedCycles();
    v.busy = busy();
    v.count = tail_ - head_;
    v.arrivals = arrival_.data() + head_;
    v.classHints = classHint_.data() + head_;
    v.dvfs = &dvfs_;
    v.power = &power_;
    return v;
}

inline void
CoreEngine::dispatchHead()
{
    RUBIK_ASSERT(busy(), "dispatch on an empty window");
    start_[head_] = now_;
    runningEnergy_ = 0.0;
    wakeRemaining_ = 0.0;
    // Prime the service-time cache here so the divides overlap with the
    // dispatch bookkeeping instead of gating the next nextEventTime().
    const double rem_mem = remMem_[head_];
    svcLeftCache_ = remCycles_[head_] / freq_ + rem_mem;
    stallFracCache_ =
        svcLeftCache_ > 0.0 ? rem_mem / svcLeftCache_ : 0.0;
}

inline void
CoreEngine::enqueue(const Request &request)
{
    RUBIK_ASSERT(std::abs(request.arrivalTime - now_) < 1e-9,
                 "enqueue must happen at the request's arrival time");
    const bool was_busy = busy();
    if (tail_ == arrival_.size())
        growLanes();
    const std::size_t i = tail_;
    arrival_[i] = request.arrivalTime;
    compute_[i] = request.computeCycles;
    memTime_[i] = request.memoryTime;
    remCycles_[i] = request.computeCycles;
    remMem_[i] = request.memoryTime;
    start_[i] = -1.0;
    id_[i] = request.id;
    classHint_[i] = request.classHint;
    // System occupancy (queue + in service) before this request.
    queueLen_[i] = static_cast<int>(tail_ - head_);
    ++tail_;

    if (was_busy)
        return;

    // Dispatching into an idle core: charge the wake latency if the core
    // slept past the C3 threshold.
    const double idle_span = now_ - idleStart_;
    const bool slept = idle_span > c3Entry_;
    dispatchHead();
    if (slept)
        wakeRemaining_ = config_.wakeLatency;
}

inline double
CoreEngine::nextEventTime() const
{
    double next = kInf;
    if (inTransition())
        next = std::min(next, transitionEnd_);
    if (busy()) {
        const bool stalled =
            inTransition() &&
            config_.transitionMode == TransitionMode::Stalled;
        if (!stalled)
            next = std::min(next, now_ + remainingServiceTime(freq_));
    }
    return next;
}

inline void
CoreEngine::accountIdle(double t0, double t1)
{
    // Split the idle interval at the C3 entry threshold.
    const double c3_at = idleStart_ + c3Entry_;
    const double c1_end = std::clamp(c3_at, t0, t1);
    const double c1_dt = c1_end - t0;
    const double c3_dt = t1 - c1_end;
    if (c1_dt > 0.0) {
        stats_.energy.coreIdle += c1Power_ * c1_dt;
        stats_.idleTime += c1_dt;
    }
    if (c3_dt > 0.0) {
        stats_.energy.coreSleep += c3Power_ * c3_dt;
        stats_.sleepTime += c3_dt;
    }
}

inline void
CoreEngine::advanceTo(double t)
{
    RUBIK_ASSERT(t >= now_ - 1e-9, "time must not go backwards");
    double dt = t - now_;
    if (dt <= 0.0) {
        now_ = std::max(now_, t);
        return;
    }

    if (!busy()) {
        accountIdle(now_, t);
        now_ = t;
        return;
    }

    const bool stalled =
        inTransition() &&
        config_.transitionMode == TransitionMode::Stalled;
    if (stalled) {
        // Halted during the voltage ramp: static power only, no
        // progress.
        const double p = statPow_;
        stats_.energy.coreActive += p * dt;
        stats_.staticBusyEnergy += statPow_ * dt;
        runningEnergy_ += p * dt;
        stats_.busyTime += dt;
        now_ = t;
        return;
    }

    // Consume wake latency first (core refilling L1/L2 after C3).
    if (wakeRemaining_ > 0.0) {
        const double wake_dt = std::min(dt, wakeRemaining_);
        // coreActivePower(freq, 1.0): activity reduces exactly to the
        // stall multiplier.
        const double p = dynBase_ * stallActivity_ + statPow_;
        stats_.energy.coreActive += p * wake_dt;
        stats_.staticBusyEnergy += statPow_ * wake_dt;
        runningEnergy_ += p * wake_dt;
        stats_.busyTime += wake_dt;
        wakeRemaining_ -= wake_dt;
        dt -= wake_dt;
        if (dt <= 0.0) {
            now_ = t;
            return;
        }
    }

    // Fluid depletion: compute and memory components shrink
    // proportionally.
    const double rem_mem = remMem_[head_];
    double service_left, stall_frac;
    if (svcLeftCache_ >= 0.0) {
        service_left = svcLeftCache_;
        stall_frac = stallFracCache_;
    } else {
        service_left = remCycles_[head_] / freq_ + rem_mem;
        stall_frac = service_left > 0.0 ? rem_mem / service_left : 0.0;
    }
    double alpha;
    if (service_left <= kTimeEps) {
        alpha = 1.0;
    } else {
        alpha = std::min(1.0, dt / service_left);
    }

    const double activity =
        (1.0 - stall_frac) + stall_frac * stallActivity_;
    const double p = dynBase_ * activity + statPow_;
    stats_.energy.coreActive += p * dt;
    stats_.staticBusyEnergy += statPow_ * dt;
    runningEnergy_ += p * dt;
    stats_.busyTime += dt;
    stats_.stallTime += stall_frac * dt;
    stats_.freqResidency[freqIndex_] += dt;

    remCycles_[head_] *= (1.0 - alpha);
    remMem_[head_] *= (1.0 - alpha);
    // Full depletion multiplies both components by exactly 0.0, so the
    // remaining service time is exactly +0.0 / f + 0.0 == 0.0 with no
    // divide (and the stall fraction its zero-service value 0.0);
    // partial depletion leaves the cache stale.
    svcLeftCache_ = alpha == 1.0 ? 0.0 : -1.0;
    stallFracCache_ = 0.0;
    now_ = t;
}

inline std::optional<CompletedRequest>
CoreEngine::processEvents()
{
    // Transition end first: a completion due at the same instant was
    // computed under the old frequency and still fires below.
    if (transitionEnd_ >= 0.0 && transitionEnd_ <= now_ + kTimeEps) {
        transitionEnd_ = -1.0;
        if (pendingFreq_ != freq_) {
            freq_ = pendingFreq_;
            refreshFreqDerived();
            ++stats_.numTransitions;
            if (config_.recordTimeline)
                timeline_.emplace_back(now_, freq_);
        }
    }

    // A remainder below half an ulp of the clock (possible past 2^14 s,
    // where that exceeds kTimeEps) can never be advanced through:
    // now_ + left == now_, so it completes now too. Below 2^14 s the
    // second test implies the first.
    const double left = remainingServiceTime(freq_);
    if (busy() && (left <= kTimeEps || now_ + left == now_)) {
        const std::size_t h = head_;
        CompletedRequest done;
        done.id = id_[h];
        done.arrivalTime = arrival_[h];
        done.startTime = start_[h];
        done.completionTime = now_;
        done.computeCycles = compute_[h];
        done.memoryTime = memTime_[h];
        done.coreEnergy = runningEnergy_;
        done.queueLenAtArrival = queueLen_[h];
        done.classHint = classHint_[h];

        ++head_;
        runningEnergy_ = 0.0;
        if (busy()) {
            if (head_ >= kCompactAt)
                compact();
            dispatchHead();
        } else {
            head_ = 0;
            tail_ = 0;
            idleStart_ = now_;
            svcLeftCache_ = -1.0;
        }
        return done;
    }
    return std::nullopt;
}

inline void
CoreEngine::requestFrequency(double freq)
{
    RUBIK_ASSERT(freq >= dvfs_.minFrequency() - 1.0 &&
                     freq <= dvfs_.maxFrequency() + 1.0,
                 "frequency outside the DVFS range");
    if (std::abs(freq - targetFrequency()) < 1.0)
        return; // Already there or heading there.
    applyFrequency(freq);
}

} // namespace rubik

#endif // RUBIK_SIM_CORE_ENGINE_H
