#ifndef RUBIK_SIM_DECISION_LOG_H
#define RUBIK_SIM_DECISION_LOG_H

/**
 * @file
 * Decision-stream recording for byte-identity checks and latency
 * telemetry.
 *
 * A DecisionLog summarizes the ordered stream of frequencies a policy
 * returned over a run as a count plus a chained FNV-1a hash over each
 * frequency's raw double bits. Two runs made the same decisions in the
 * same order iff their (count, hash) pairs match — this is what the
 * serve daemon's replay mode and the one-shot CLI's `--decision-hash`
 * compare, and what the serve tests assert. Optionally one decision
 * in DecisionLog::kTimingStride is timed (CLOCK_MONOTONIC) into a
 * LatencyHistogram: timing every decision added ~75 ns to a serve
 * event whose engine work takes ~135 ns (4-vCPU x86-64), and a sample
 * serves the histogram.
 *
 * DecisionRecordingPolicy wraps any DvfsPolicy transparently: all
 * hooks forward unchanged, so the wrapped run's decisions are the
 * unwrapped run's decisions by construction.
 */

#include <cstdint>
#include <cstring>
#include <ctime>

#include "sim/policy.h"
#include "sim/trace.h"
#include "stats/latency_histogram.h"

namespace rubik {

/// Accumulated summary of one policy run's decision stream.
struct DecisionLog {
    /**
     * When `latency` is set, one decision in this many is timed,
     * starting with the first. Prime, so a stream whose decision cost
     * repeats with any period up to 16 gets every phase of it timed:
     * both kinds of an alternating stream (a serve client's arrivals
     * and completions), and every residue of a period-3 one, where a
     * stride of 15 timed only one (the heavy decisions of perfbench's
     * seed-42 stream).
     */
    static constexpr uint32_t kTimingStride = 17;

    uint64_t count = 0;
    /// Chained fnv1a64 over each decision's double bits, in order.
    uint64_t hash = 14695981039346656037ull;
    /// When non-null, the wall time (ns) of every kTimingStride-th
    /// decision lands here; count and hash still cover every one.
    LatencyHistogram *latency = nullptr;

    void record(double frequency)
    {
        uint64_t bits;
        std::memcpy(&bits, &frequency, sizeof bits);
        hash = fnv1a64(&bits, sizeof bits, hash);
        ++count;
    }
};

/// Wraps a policy and records every selectFrequency result into a log.
class DecisionRecordingPolicy final : public DvfsPolicy
{
  public:
    DecisionRecordingPolicy(DvfsPolicy &inner, DecisionLog &log)
        : inner_(inner), log_(log)
    {
    }

    void reset() override { inner_.reset(); }

    double selectFrequency(const CoreView &core) override
    {
        if (log_.latency && --untilTimed_ == 0) {
            untilTimed_ = DecisionLog::kTimingStride;
            struct timespec t0, t1;
            clock_gettime(CLOCK_MONOTONIC, &t0);
            const double f = inner_.selectFrequency(core);
            clock_gettime(CLOCK_MONOTONIC, &t1);
            log_.latency->add(
                static_cast<uint64_t>(t1.tv_sec - t0.tv_sec) * 1000000000ull +
                static_cast<uint64_t>(t1.tv_nsec - t0.tv_nsec));
            log_.record(f);
            return f;
        }
        const double f = inner_.selectFrequency(core);
        log_.record(f);
        return f;
    }

    void onCompletion(const CompletedRequest &done,
                      const CoreView &core) override
    {
        inner_.onCompletion(done, core);
    }

    double nextPeriodicUpdate() const override
    {
        return inner_.nextPeriodicUpdate();
    }

    void periodicUpdate(const CoreView &core) override
    {
        inner_.periodicUpdate(core);
    }

    void setPowerCap(double watts) override { inner_.setPowerCap(watts); }

  private:
    DvfsPolicy &inner_;
    DecisionLog &log_;
    /// Decisions until the next timed one (1: the next is timed).
    uint32_t untilTimed_ = 1;
};

} // namespace rubik

#endif // RUBIK_SIM_DECISION_LOG_H
