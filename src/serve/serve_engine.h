#ifndef RUBIK_SERVE_SERVE_ENGINE_H
#define RUBIK_SERVE_SERVE_ENGINE_H

/**
 * @file
 * The live controller behind `rubik_cli serve` (ROADMAP item 1).
 *
 * Where the simulator owns time and synthesizes events, ServeEngine is
 * driven by an external request stream — arrival and completion
 * telemetry as a production power manager would receive it from
 * per-request CPI-stack counters (paper Sec. 4.2). It keeps the live
 * queue in a compacting arrival-lane ring (bounded memory no matter
 * how long it runs), feeds completions to the exact Rubik profiler,
 * rebuilds tail tables on the controller's own periodic path, and
 * answers every event with the exact controller's frequency decision.
 * Events with non-finite or negative values, with a timestamp before
 * the engine clock, or with one more than kMaxGapPeriods update periods
 * past it, are rejected before they touch any state.
 *
 * Every decision flows through a DecisionRecordingPolicy, so the
 * engine's stream carries the same (count, chained-hash) identity and
 * per-decision latency histogram the replay/CI machinery compares.
 * The daemon (serve/daemon.h) is a thin socket front-end over this
 * class; tests drive the engine directly.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rubik_controller.h"
#include "power/dvfs_model.h"
#include "sim/decision_log.h"
#include "stats/latency_histogram.h"

namespace rubik {

/// Configuration for a live serving session.
struct ServeConfig
{
    /// Tail latency bound L (seconds). Required.
    double latencyBound = 0.0;
    /// Target percentile.
    double percentile = 0.95;
    /// Table rebuild period (s).
    double updatePeriod = 100e-3;
    /**
     * PI feedback on the measured tail. Off by default in serve mode:
     * the internal target stays at the bound, and the decision hashes
     * recorded for existing streams were taken that way (turning it on
     * changes them).
     */
    bool feedback = false;
    /// Table shape (rows, positions, buckets...).
    TailTableConfig table;
    /// Reject arrivals beyond this many in-flight requests (bounded
    /// memory; a real server sheds load long before this).
    std::size_t maxQueue = 1 << 16;
    /// Time each decision (CLOCK_MONOTONIC) into the histogram.
    bool timeDecisions = true;
};

/// One live event's outcome.
struct ServeDecision
{
    double frequency = 0.0;
    bool ok = true;
    const char *error = nullptr; ///< Set when !ok (static string).
};

/**
 * Long-running controller: ingests events, emits decisions, keeps
 * observable statistics. Single-threaded by design — the daemon's
 * socket loop serializes clients.
 */
class ServeEngine
{
  public:
    /**
     * Largest accepted jump of an event's `t` past the engine clock, in
     * update periods. advanceTo() runs every periodic update the jump
     * crosses (skipping them would drop PI feedback steps), so the bound
     * caps one event's catch-up work; 1e7 idle periods take ~0.1 s.
     */
    static constexpr double kMaxGapPeriods = 1e7;

    ServeEngine(const DvfsModel &dvfs, const ServeConfig &config);
    ~ServeEngine();

    /**
     * Request arrival at time `t` (seconds, non-decreasing per
     * stream). `elapsedCycles` optionally reports the running
     * request's executed cycles at `t` (0 when unknown); `classHint`
     * is the Adrenaline-style class (-1: none). Returns the frequency
     * decision.
     */
    ServeDecision onArrival(double t, double elapsedCycles = 0.0,
                            int classHint = -1);

    /**
     * Completion of the oldest in-flight request at time `t` with its
     * measured compute cycles and memory time. Returns the frequency
     * decision for the remaining queue.
     */
    ServeDecision onCompletion(double t, double computeCycles,
                               double memoryTime);

    /// One-line JSON stats snapshot (daemon `stats` / `--stats`).
    std::string statsJson() const;

    /// @name Introspection (tests)
    /// @{
    std::size_t queueDepth() const { return arrivals_.size() - head_; }
    const DecisionLog &decisionLog() const { return log_; }
    const LatencyHistogram &decisionLatency() const { return latency_; }
    uint64_t transitions() const { return transitions_; }
    uint64_t tableRebuilds() const { return exact_->tableRebuilds(); }
    bool warm() const { return exact_->warm(); }
    double frequency() const { return frequency_; }
    const RubikController &controller() const { return *exact_; }
    const ServeConfig &config() const { return cfg_; }
    /// @}

  private:
    /// Static error for an event time or value the engine must not
    /// consume; nullptr when every value is acceptable.
    const char *invalidEvent(double t, double a, double b) const;
    CoreView view(double now) const;
    /// Run due periodic updates, then advance the stream clock.
    void advanceTo(double t);
    double decide(double now);

    ServeConfig cfg_;
    DvfsModel dvfs_;

    // Live queue: [head_, arrivals_.size()) are in-flight, oldest
    // first. Compaction keeps the lane contiguous (CoreView wants a
    // plain pointer) and the footprint proportional to the live queue.
    std::vector<double> arrivals_;
    std::vector<int> classHints_;
    std::size_t head_ = 0;

    double now_ = 0.0;
    double elapsedCycles_ = 0.0;
    double frequency_ = 0.0;

    std::unique_ptr<RubikController> exact_;
    std::unique_ptr<DecisionRecordingPolicy> recorder_;

    DecisionLog log_;
    LatencyHistogram latency_;
    uint64_t transitions_ = 0;
    uint64_t arrivalsSeen_ = 0;
    uint64_t completionsSeen_ = 0;
    uint64_t rejected_ = 0;
    uint64_t wallStartNs_ = 0; ///< CLOCK_MONOTONIC at first event.
};

} // namespace rubik

#endif // RUBIK_SERVE_SERVE_ENGINE_H
