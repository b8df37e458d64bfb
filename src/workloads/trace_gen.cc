#include "workloads/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"
#include "workloads/mmpp.h"

namespace rubik {

namespace {

Trace
generateWith(const AppProfile &app, const ArrivalProcess &arrivals,
             int num_requests, double end_time, double nominal_freq,
             uint64_t seed)
{
    Rng rng(seed);
    Rng arrival_rng = rng.split();
    Rng demand_rng = rng.split();

    DemandSplitter splitter(app.memFraction, app.memNoise, nominal_freq);

    Trace trace;
    trace.reserve(static_cast<std::size_t>(std::max(num_requests, 0)));
    double t = 0.0;
    while (true) {
        if (num_requests > 0 &&
            trace.size() >= static_cast<std::size_t>(num_requests)) {
            break;
        }
        t = arrivals.nextArrival(t, arrival_rng);
        if (end_time > 0.0 && t > end_time)
            break;
        const double total = app.serviceTime->sample(demand_rng);
        const ServiceDemand d = splitter.split(total, demand_rng);
        TraceRecord r;
        r.arrivalTime = t;
        r.computeCycles = d.computeCycles;
        r.memoryTime = d.memoryTime;
        trace.push_back(r);
    }
    return trace;
}

} // anonymous namespace

Trace
generateTrace(const AppProfile &app, const ArrivalProcess &arrivals,
              int num_requests, double nominal_freq, uint64_t seed)
{
    RUBIK_ASSERT(num_requests > 0, "need a positive request count");
    return generateWith(app, arrivals, num_requests, 0.0, nominal_freq,
                        seed);
}

Trace
generateLoadTrace(const AppProfile &app, double load, int num_requests,
                  double nominal_freq, uint64_t seed)
{
    RUBIK_ASSERT(load > 0 && load < 1.5, "load must be in (0, 1.5)");
    const double rate = load * app.maxQps(nominal_freq, nominal_freq);
    return generateTrace(app, ArrivalProcess(rate), num_requests,
                         nominal_freq, seed);
}

Trace
generateBurstyTrace(const AppProfile &app, double load, int num_requests,
                    double nominal_freq, uint64_t seed,
                    double burst_factor, double high_fraction,
                    double mean_dwell)
{
    RUBIK_ASSERT(num_requests > 0, "need a positive request count");
    const double mean_rate = load * app.maxQps(nominal_freq, nominal_freq);
    MmppArrivals mmpp = makeBurstyArrivals(mean_rate, burst_factor,
                                           high_fraction, mean_dwell);

    Rng rng(seed);
    Rng arrival_rng = rng.split();
    Rng demand_rng = rng.split();
    DemandSplitter splitter(app.memFraction, app.memNoise, nominal_freq);

    Trace trace;
    trace.reserve(static_cast<std::size_t>(num_requests));
    double t = 0.0;
    for (int i = 0; i < num_requests; ++i) {
        t = mmpp.nextArrival(t, arrival_rng);
        const double total = app.serviceTime->sample(demand_rng);
        const ServiceDemand d = splitter.split(total, demand_rng);
        trace.push_back({t, d.computeCycles, d.memoryTime, -1});
    }
    return trace;
}

Trace
generateCorrelatedTrace(const AppProfile &app, double load,
                        int num_requests, double nominal_freq,
                        uint64_t seed, double rho)
{
    RUBIK_ASSERT(rho >= 0 && rho < 1, "rho must be in [0,1)");
    Trace trace = generateLoadTrace(app, load, num_requests, nominal_freq,
                                    seed);

    // Gaussian-copula reordering: draw an AR(1) Gaussian sequence, and
    // permute the IID service demands so their ranks follow the AR(1)
    // ranks. Marginals are untouched; adjacency correlation ~ rho.
    Rng rng(seed + 0x9e37);
    const std::size_t n = trace.size();
    std::vector<double> ar(n);
    double z = rng.normal();
    const double innov = std::sqrt(1.0 - rho * rho);
    for (std::size_t i = 0; i < n; ++i) {
        ar[i] = z;
        z = rho * z + innov * rng.normal();
    }

    // ranks of the AR sequence.
    std::vector<std::size_t> ar_rank(n);
    std::iota(ar_rank.begin(), ar_rank.end(), 0);
    std::sort(ar_rank.begin(), ar_rank.end(),
              [&](std::size_t a, std::size_t b) { return ar[a] < ar[b]; });

    // demands sorted by total nominal service time.
    std::vector<std::size_t> demand_order(n);
    std::iota(demand_order.begin(), demand_order.end(), 0);
    std::sort(demand_order.begin(), demand_order.end(),
              [&](std::size_t a, std::size_t b) {
                  return trace[a].serviceTime(nominal_freq) <
                         trace[b].serviceTime(nominal_freq);
              });

    // Position with the k-th smallest AR value gets the k-th smallest
    // demand; arrival times stay in place.
    Trace out = trace;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t pos = ar_rank[k];
        const std::size_t src = demand_order[k];
        out[pos].computeCycles = trace[src].computeCycles;
        out[pos].memoryTime = trace[src].memoryTime;
        out[pos].classHint = trace[src].classHint;
    }
    return out;
}

Trace
generateSteppedTrace(const AppProfile &app,
                     const std::vector<std::pair<double, double>> &load_steps,
                     double end_time, double nominal_freq, uint64_t seed)
{
    RUBIK_ASSERT(!load_steps.empty(), "need at least one load step");
    const double max_qps = app.maxQps(nominal_freq, nominal_freq);
    std::vector<ArrivalProcess::Step> steps;
    steps.reserve(load_steps.size());
    for (const auto &[time, load] : load_steps)
        steps.push_back({time, load * max_qps});
    return generateWith(app, ArrivalProcess(std::move(steps)),
                        /*num_requests=*/0, end_time, nominal_freq, seed);
}

} // namespace rubik
