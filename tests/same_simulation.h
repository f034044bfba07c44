/**
 * @file
 * Test helper: the one "same simulated result" check.  Two RunResults
 * are the same simulation when their simulatedDigest()s agree (every
 * field but hostSeconds, raw counters included); a failure prints both
 * results' JSON so the diverging field can be read off.
 */

#ifndef UFC_TESTS_SAME_SIMULATION_H
#define UFC_TESTS_SAME_SIMULATION_H

#include <gtest/gtest.h>

#include "sim/stats.h"

namespace ufc {
namespace testutil {

/** Use as EXPECT_TRUE(sameSimulation(a, b)) << context. */
inline testing::AssertionResult
sameSimulation(const sim::RunResult &a, const sim::RunResult &b)
{
    if (a.simulatedDigest() == b.simulatedDigest())
        return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << "simulated results differ:\n  " << a.toJson() << "\n  "
           << b.toJson();
}

} // namespace testutil
} // namespace ufc

#endif // UFC_TESTS_SAME_SIMULATION_H
