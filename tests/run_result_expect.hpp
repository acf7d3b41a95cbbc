/**
 * @file
 * The one RunResult comparator the differential, durability and chaos
 * suites share: every field, each failure naming the field (gtest
 * prints the compared expressions) plus the caller's @p label.
 */
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "mp/system.hpp"

namespace qm::testutil {

inline void
expectSameRunResult(const mp::RunResult &a, const mp::RunResult &b,
                    const std::string &label = "")
{
    EXPECT_EQ(a.completed, b.completed) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.instructions, b.instructions) << label;
    EXPECT_EQ(a.contexts, b.contexts) << label;
    EXPECT_EQ(a.rendezvous, b.rendezvous) << label;
    EXPECT_EQ(a.contextSwitches, b.contextSwitches) << label;
    EXPECT_EQ(a.utilization, b.utilization) << label;
    EXPECT_EQ(a.computeCycles, b.computeCycles) << label;
    EXPECT_EQ(a.kernelCycles, b.kernelCycles) << label;
    EXPECT_EQ(a.blockedCycles, b.blockedCycles) << label;
    EXPECT_EQ(a.busCycles, b.busCycles) << label;
    EXPECT_EQ(a.watchdogTripped, b.watchdogTripped) << label;
    EXPECT_EQ(a.failureReason, b.failureReason) << label;
    EXPECT_EQ(a.faultsInjected, b.faultsInjected) << label;
    EXPECT_EQ(a.faultRecoveries, b.faultRecoveries) << label;
    EXPECT_EQ(a.traceDropped, b.traceDropped) << label;
    EXPECT_EQ(a.hostAborted, b.hostAborted) << label;
    EXPECT_EQ(a.replays, b.replays) << label;
    EXPECT_EQ(a.recovered, b.recovered) << label;
    for (std::size_t k = 0; k < a.faultKinds.size(); ++k) {
        EXPECT_EQ(a.faultKinds[k].injected, b.faultKinds[k].injected)
            << label << " faultKinds[" << k << "]";
        EXPECT_EQ(a.faultKinds[k].detected, b.faultKinds[k].detected)
            << label << " faultKinds[" << k << "]";
        EXPECT_EQ(a.faultKinds[k].recovered, b.faultKinds[k].recovered)
            << label << " faultKinds[" << k << "]";
    }
}

} // namespace qm::testutil
