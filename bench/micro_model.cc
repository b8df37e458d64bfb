/**
 * @file
 * Microbenchmarks of Rubik's runtime machinery (google-benchmark):
 *
 *  - a whole target tail table, every entry read (the paper reports
 *    0.2 ms per rebuild at 128 buckets / octile rows / 16 positions);
 *  - the per-event frequency decision (must be a handful of table
 *    lookups and divides — "updates take negligible time", Sec. 4.2);
 *  - FFT vs direct convolution of 128-bucket distributions;
 *  - profiler sample recording and distribution materialization;
 *  - end-to-end event-simulator throughput.
 */

#include <complex>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/distribution.h"
#include "core/profiler.h"
#include "core/rubik_controller.h"
#include "core/target_tail_table.h"
#include "sim/simulation.h"
#include "util/fft.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads/trace_gen.h"

namespace rubik {
namespace {

DiscreteDistribution
lognormalDist(double mu, double sigma, uint64_t seed,
              std::size_t buckets = 128)
{
    Rng rng(seed);
    Histogram h(buckets, 1.0);
    for (int i = 0; i < 4096; ++i)
        h.add(rng.lognormal(mu, sigma));
    return DiscreteDistribution::fromHistogram(h, buckets);
}

void
BM_TableRebuild(benchmark::State &state)
{
    // A whole table: build() only snapshots its inputs and entries are
    // computed on first read, so read every (row, position) entry.
    const auto compute = lognormalDist(13.0, 0.3, 1);
    const auto memory = lognormalDist(-9.0, 0.3, 2);
    TailTableConfig cfg;
    cfg.rows = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        const auto table = TargetTailTable::build(compute, memory, cfg);
        for (std::size_t r = 0; r < cfg.rows; ++r) {
            for (std::size_t i = 0; i < cfg.positions; ++i) {
                benchmark::DoNotOptimize(table.tailCycles(r, i));
                benchmark::DoNotOptimize(table.tailMemTime(r, i));
            }
        }
    }
}
BENCHMARK(BM_TableRebuild)->Arg(4)->Arg(8)->Arg(16);

void
BM_FrequencyDecision(benchmark::State &state)
{
    // A warm Rubik controller deciding over a queue of `range` requests.
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel pm(dvfs);
    RubikConfig cfg;
    cfg.latencyBound = 1.0 * kMs;
    cfg.warmupSamples = 16;
    RubikController rubik(dvfs, cfg);

    CoreEngine core(dvfs, pm);
    Rng rng(3);
    for (int i = 0; i < 64; ++i) {
        CompletedRequest done;
        done.computeCycles = rng.lognormal(13.0, 0.3);
        done.memoryTime = rng.lognormal(-9.0, 0.3);
        done.completionTime = i * 1e-4;
        rubik.onCompletion(done, core.view());
    }
    rubik.periodicUpdate(core.view()); // builds the table

    const auto depth = static_cast<int>(state.range(0));
    for (int i = 0; i < depth; ++i) {
        Request r;
        r.arrivalTime = core.now();
        r.computeCycles = 5e5;
        r.memoryTime = 1e-4;
        core.enqueue(r);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(rubik.selectFrequency(core.view()));
}
BENCHMARK(BM_FrequencyDecision)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void
BM_ConvolveFft(benchmark::State &state)
{
    const auto a = lognormalDist(13.0, 0.3, 4);
    const auto b = lognormalDist(13.0, 0.4, 5);
    ConvolveOptions opts;
    opts.useFft = true;
    for (auto _ : state)
        benchmark::DoNotOptimize(a.convolveWith(b, opts));
}
BENCHMARK(BM_ConvolveFft);

void
BM_ConvolveDirect(benchmark::State &state)
{
    const auto a = lognormalDist(13.0, 0.3, 4);
    const auto b = lognormalDist(13.0, 0.4, 5);
    ConvolveOptions opts;
    opts.useFft = false;
    for (auto _ : state)
        benchmark::DoNotOptimize(a.convolveWith(b, opts));
}
BENCHMARK(BM_ConvolveDirect);

void
BM_FftPlanned(benchmark::State &state)
{
    // One planned forward+inverse pair at the convolution's native size.
    const auto n = static_cast<std::size_t>(state.range(0));
    const FftPlan &plan = FftPlan::forSize(n);
    std::vector<std::complex<double>> buf(n);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = 1.0 / static_cast<double>(i + 1);
    for (auto _ : state) {
        plan.run(buf.data(), false);
        plan.run(buf.data(), true);
        benchmark::DoNotOptimize(buf.data());
    }
}
BENCHMARK(BM_FftPlanned)->Arg(256)->Arg(1024);

void
BM_FftUnplanned(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<std::complex<double>> buf(n);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = 1.0 / static_cast<double>(i + 1);
    for (auto _ : state) {
        fft(buf, false);
        fft(buf, true);
        benchmark::DoNotOptimize(buf.data());
    }
}
BENCHMARK(BM_FftUnplanned)->Arg(256)->Arg(1024);

void
BM_QuantileUpper(benchmark::State &state)
{
    // The table-build inner-loop quantile: a binary search over the
    // cached CDF.
    const auto d = lognormalDist(13.0, 0.3, 4);
    double q = 0.0;
    for (auto _ : state) {
        q += 1e-4;
        if (q >= 1.0)
            q = 0.0;
        benchmark::DoNotOptimize(d.quantileUpper(q));
    }
}
BENCHMARK(BM_QuantileUpper);

void
BM_ProfilerRecordAndBuild(benchmark::State &state)
{
    // The cadence real rebuilds see: 32 completions
    // (RubikConfig::minNewSamplesPerRebuild) per materialization.
    Profiler prof(4096, 128);
    Rng rng(6);
    std::vector<std::pair<double, double>> samples(4096 * 4);
    for (auto &[cycles, mem] : samples) {
        cycles = rng.lognormal(13.0, 0.3);
        mem = rng.lognormal(-9.0, 0.3);
    }
    std::size_t next = 0;
    const auto record = [&] {
        prof.record(samples[next].first, samples[next].second);
        next = (next + 1) % samples.size();
    };
    for (int i = 0; i < 4096; ++i)
        record();
    for (auto _ : state) {
        for (int i = 0; i < 32; ++i)
            record();
        benchmark::DoNotOptimize(prof.computeDistribution());
    }
}
BENCHMARK(BM_ProfilerRecordAndBuild);

void
BM_EventSimThroughput(benchmark::State &state)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel pm(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    const Trace trace =
        generateLoadTrace(app, 0.5, 5000, dvfs.nominalFrequency(), 7);
    for (auto _ : state) {
        FixedFrequencyPolicy fixed(dvfs.nominalFrequency());
        benchmark::DoNotOptimize(simulate(trace, fixed, dvfs, pm));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_EventSimThroughput);

void
BM_RubikSimThroughput(benchmark::State &state)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel pm(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    const Trace trace =
        generateLoadTrace(app, 0.5, 5000, dvfs.nominalFrequency(), 7);
    const double bound =
        traceMeanServiceTime(trace, dvfs.nominalFrequency()) * 4.0;
    for (auto _ : state) {
        RubikConfig cfg;
        cfg.latencyBound = bound;
        RubikController rubik(dvfs, cfg);
        benchmark::DoNotOptimize(simulate(trace, rubik, dvfs, pm));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_RubikSimThroughput);

} // namespace
} // namespace rubik

BENCHMARK_MAIN();
