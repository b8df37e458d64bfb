/**
 * @file
 * Unit tests for src/power: DVFS grid/V-f curve and the analytical power
 * model (monotonicity, stall behavior, component accounting, calibration
 * sanity against Table 2's 65 W TDP class of machine).
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "util/units.h"

namespace rubik {
namespace {

TEST(DvfsModel, HaswellGridMatchesTable2)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    EXPECT_DOUBLE_EQ(dvfs.minFrequency(), 0.8 * kGHz);
    EXPECT_DOUBLE_EQ(dvfs.maxFrequency(), 3.4 * kGHz);
    EXPECT_DOUBLE_EQ(dvfs.nominalFrequency(), 2.4 * kGHz);
    EXPECT_EQ(dvfs.numFrequencies(), 14u); // 0.8..3.4 in 0.2 steps
    EXPECT_DOUBLE_EQ(dvfs.transitionLatency(), 4e-6);
}

TEST(DvfsModel, QuantizeUp)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    EXPECT_DOUBLE_EQ(dvfs.quantizeUp(0.0), 0.8 * kGHz);
    EXPECT_DOUBLE_EQ(dvfs.quantizeUp(0.9 * kGHz), 1.0 * kGHz);
    EXPECT_DOUBLE_EQ(dvfs.quantizeUp(1.0 * kGHz), 1.0 * kGHz);
    EXPECT_DOUBLE_EQ(dvfs.quantizeUp(99.0 * kGHz), 3.4 * kGHz);
}

TEST(DvfsModel, QuantizeDown)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    EXPECT_DOUBLE_EQ(dvfs.quantizeDown(0.9 * kGHz), 0.8 * kGHz);
    EXPECT_DOUBLE_EQ(dvfs.quantizeDown(3.3 * kGHz), 3.2 * kGHz);
    EXPECT_DOUBLE_EQ(dvfs.quantizeDown(0.1 * kGHz), 0.8 * kGHz);
    EXPECT_DOUBLE_EQ(dvfs.quantizeDown(3.4 * kGHz), 3.4 * kGHz);
}

TEST(DvfsModel, CeilingThresholdMatchesQuantizeUp)
{
    // f - 1.0 > ceilingThreshold(c) must agree with
    // quantizeUp(f) >= min(c, f_max) for every f: on, between and
    // around grid points (within the 1 Hz slop, one ulp either side of
    // it), below and above the grid, for ceilings on the grid, between
    // grid points, below f_min and above f_max.
    const DvfsModel dvfs = DvfsModel::haswell();
    const auto &grid = dvfs.frequencies();
    std::vector<double> fs = {0.0, 1.0, 0.5 * grid.front(),
                              2.0 * grid.back()};
    for (const double g : grid) {
        for (const double d : {-150e6, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0}) {
            const double f = g + d;
            fs.insert(fs.end(), {f, std::nextafter(f, 0.0),
                                 std::nextafter(f, 1e300)});
        }
    }
    std::vector<double> ceilings = {0.5 * grid.front(),
                                    grid.back() + 1e9};
    for (const double g : grid)
        ceilings.insert(ceilings.end(), {g, g + 100e6, g - 1.0});
    for (const double c : ceilings) {
        const double top = std::min(c, dvfs.maxFrequency());
        const double threshold = dvfs.ceilingThreshold(c);
        for (const double f : fs) {
            EXPECT_EQ(f - 1.0 > threshold, dvfs.quantizeUp(f) >= top)
                << "f " << f << " ceiling " << c;
        }
    }
}

TEST(DvfsModel, IndexOfRoundsToNearest)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    EXPECT_EQ(dvfs.indexOf(0.8 * kGHz), 0u);
    EXPECT_EQ(dvfs.indexOf(2.4 * kGHz), 8u);
    EXPECT_EQ(dvfs.indexOf(2.45 * kGHz), 8u);
    EXPECT_EQ(dvfs.indexOf(3.4 * kGHz), 13u);
}

TEST(DvfsModel, VoltageMonotonicInFrequency)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    double prev = 0.0;
    for (double f : dvfs.frequencies()) {
        const double v = dvfs.voltage(f);
        EXPECT_GT(v, prev);
        prev = v;
    }
    EXPECT_NEAR(dvfs.voltage(0.8 * kGHz), 0.55, 1e-12);
    EXPECT_NEAR(dvfs.voltage(3.4 * kGHz), 1.15, 1e-12);
}

TEST(DvfsModel, TransitionLatencyConfigurable)
{
    DvfsModel dvfs = DvfsModel::haswell(130e-6); // Sec. 5.5 real system
    EXPECT_DOUBLE_EQ(dvfs.transitionLatency(), 130e-6);
    dvfs.setTransitionLatency(0.5e-6);
    EXPECT_DOUBLE_EQ(dvfs.transitionLatency(), 0.5e-6);
}

class PowerModelTest : public ::testing::Test
{
  protected:
    DvfsModel dvfs = DvfsModel::haswell();
    PowerModel pm{dvfs};
};

TEST_F(PowerModelTest, ActivePowerMonotonicInFrequency)
{
    double prev = 0.0;
    for (double f : dvfs.frequencies()) {
        const double p = pm.coreActivePower(f);
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST_F(PowerModelTest, SuperlinearDynamicScaling)
{
    // P ~ V^2 f: doubling frequency more than doubles dynamic power.
    const double p1 = pm.coreDynamicPower(1.2 * kGHz);
    const double p2 = pm.coreDynamicPower(2.4 * kGHz);
    EXPECT_GT(p2, 2.0 * p1);
}

TEST_F(PowerModelTest, StallReducesDynamicPower)
{
    const double busy = pm.coreActivePower(2.4 * kGHz, 0.0);
    const double stalled = pm.coreActivePower(2.4 * kGHz, 1.0);
    EXPECT_LT(stalled, busy);
    EXPECT_GT(stalled, pm.coreStaticPower(2.4 * kGHz)); // clocks still on
}

TEST_F(PowerModelTest, SleepStatesOrdered)
{
    const double active = pm.corePower(CoreState::Active, 2.4 * kGHz);
    const double idle = pm.corePower(CoreState::IdleC1, 2.4 * kGHz);
    const double sleep = pm.corePower(CoreState::SleepC3, 2.4 * kGHz);
    EXPECT_GT(active, idle);
    EXPECT_GT(idle, sleep);
    EXPECT_GT(sleep, 0.0);
}

TEST_F(PowerModelTest, NominalCorePowerInHaswellRange)
{
    // A Haswell-class core at nominal should draw mid-single-digit watts.
    const double p = pm.coreActivePower(2.4 * kGHz);
    EXPECT_GT(p, 4.0);
    EXPECT_LT(p, 10.0);
}

TEST_F(PowerModelTest, DynamicRangeSupportsLargeSavings)
{
    // The paper reports up to 66% core power savings; the model must have
    // the dynamic range for that.
    const double high = pm.coreActivePower(2.4 * kGHz);
    const double low = pm.coreActivePower(0.8 * kGHz);
    EXPECT_LT(low / high, 0.34);
}

TEST_F(PowerModelTest, UncoreScalesWithActiveCores)
{
    EXPECT_GT(pm.uncorePower(6), pm.uncorePower(0));
    EXPECT_NEAR(pm.uncorePower(6) - pm.uncorePower(0),
                6.0 * pm.params().uncorePerActiveCore, 1e-12);
}

TEST_F(PowerModelTest, DramPowerBoundedByUtilization)
{
    EXPECT_DOUBLE_EQ(pm.dramPower(0.0), pm.params().dramStatic);
    EXPECT_DOUBLE_EQ(pm.dramPower(1.0),
                     pm.params().dramStatic + pm.params().dramPeak);
    EXPECT_DOUBLE_EQ(pm.dramPower(2.0), pm.dramPower(1.0)); // clamped
    EXPECT_DOUBLE_EQ(pm.dramPower(-1.0), pm.dramPower(0.0));
}

TEST_F(PowerModelTest, PackagePowerAtNominalWithinTdp)
{
    // 6 cores at nominal + uncore should fit in the 65 W TDP.
    std::vector<double> freqs(6, 2.4 * kGHz);
    std::vector<double> stalls(6, 0.3);
    EXPECT_LT(pm.packagePower(freqs, stalls), pm.tdp());
}

TEST_F(PowerModelTest, PackagePowerAtMaxExceedsTdp)
{
    // All-core max frequency must exceed TDP, or HW-T would be trivial.
    std::vector<double> freqs(6, 3.4 * kGHz);
    std::vector<double> stalls(6, 0.0);
    EXPECT_GT(pm.packagePower(freqs, stalls), pm.tdp());
}

TEST_F(PowerModelTest, EnergyBreakdownAccumulates)
{
    EnergyBreakdown a, b;
    a.coreActive = 1.0;
    a.uncore = 2.0;
    b.coreActive = 3.0;
    b.dram = 4.0;
    a += b;
    EXPECT_DOUBLE_EQ(a.coreActive, 4.0);
    EXPECT_DOUBLE_EQ(a.uncore, 2.0);
    EXPECT_DOUBLE_EQ(a.dram, 4.0);
    EXPECT_DOUBLE_EQ(a.total(), 10.0);
    EXPECT_DOUBLE_EQ(a.coreTotal(), 4.0);
}

TEST_F(PowerModelTest, IdleServerPowerIsSignificant)
{
    // The motivation for RubikColoc (Sec. 6): even an idle server burns a
    // large fraction of its loaded power. Idle: 6 cores in C3 + uncore +
    // DRAM + other.
    const auto &p = pm.params();
    const double idle = 6.0 * p.c3Power + pm.uncorePower(0) +
                        pm.dramPower(0.0) + pm.otherPower();
    const double loaded = 6.0 * pm.coreActivePower(2.4 * kGHz, 0.3) +
                          pm.uncorePower(6) + pm.dramPower(0.5) +
                          pm.otherPower();
    EXPECT_GT(idle / loaded, 0.35);
    EXPECT_LT(idle / loaded, 0.75);
}

} // namespace
} // namespace rubik
