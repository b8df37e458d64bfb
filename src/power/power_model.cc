#include "power/power_model.h"

#include "util/error.h"

namespace rubik {

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &o)
{
    coreActive += o.coreActive;
    coreIdle += o.coreIdle;
    coreSleep += o.coreSleep;
    uncore += o.uncore;
    dram += o.dram;
    other += o.other;
    return *this;
}

PowerModel::PowerModel(const DvfsModel &dvfs)
    : PowerModel(dvfs, Params())
{
}

PowerModel::PowerModel(const DvfsModel &dvfs, const Params &params)
    : dvfs_(dvfs), params_(params)
{
    RUBIK_ASSERT(params.numCores > 0, "need at least one core");
}

double
PowerModel::corePower(CoreState state, double freq) const
{
    switch (state) {
      case CoreState::Active:
        return coreActivePower(freq);
      case CoreState::IdleC1:
        return params_.c1Power;
      case CoreState::SleepC3:
        return params_.c3Power;
    }
    panic("unknown core state");
}

double
PowerModel::uncorePower(int active_cores) const
{
    return params_.uncoreStatic +
           params_.uncorePerActiveCore * static_cast<double>(active_cores);
}

double
PowerModel::dramPower(double bw_utilization) const
{
    const double u = std::min(1.0, std::max(0.0, bw_utilization));
    return params_.dramStatic + params_.dramPeak * u;
}

double
PowerModel::packagePower(const std::vector<double> &core_freqs,
                         const std::vector<double> &stall_fracs) const
{
    RUBIK_ASSERT(core_freqs.size() == stall_fracs.size(),
                 "frequency/stall vectors must match");
    double power = uncorePower(static_cast<int>(core_freqs.size()));
    for (std::size_t i = 0; i < core_freqs.size(); ++i)
        power += coreActivePower(core_freqs[i], stall_fracs[i]);
    return power;
}

double
capFrequencyCeiling(const PowerModel &power, double cap_watts)
{
    const DvfsModel &dvfs = power.dvfs();
    if (cap_watts <= 0.0)
        return dvfs.maxFrequency();
    double ceiling = dvfs.minFrequency();
    for (const double f : dvfs.frequencies()) {
        if (power.coreActivePower(f, 0.0) <= cap_watts)
            ceiling = f;
    }
    return ceiling;
}

} // namespace rubik
