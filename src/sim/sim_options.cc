#include "sim/sim_options.h"

#include <stdexcept>

namespace rubik {

void
SimOptions::validate() const
{
    if (engine.initialFrequency < 0.0)
        throw std::runtime_error(
            "SimOptions: initialFrequency must be >= 0 (0 = nominal)");
    if (engine.wakeLatency < 0.0)
        throw std::runtime_error(
            "SimOptions: wakeLatency must be >= 0");
    if (table.rows < 1)
        throw std::runtime_error("SimOptions: table.rows must be >= 1");
    if (table.positions < 1)
        throw std::runtime_error(
            "SimOptions: table.positions must be >= 1");
    if (table.percentile <= 0.0 || table.percentile >= 1.0)
        throw std::runtime_error(
            "SimOptions: table.percentile must be in (0, 1)");
    if (table.buckets < 2)
        throw std::runtime_error(
            "SimOptions: table.buckets must be >= 2");
    if (thermal.enabled)
        thermal.params.validate();
}

bool
SimOptions::applySimdMode() const
{
    return setSimdMode(numerics.simd);
}

} // namespace rubik
