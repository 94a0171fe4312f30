/**
 * @file
 * The one definition of "the same run" for the bit-identity tests:
 * two RunResults are identical exactly when their journal encodings
 * (campaign::encodeRunResult -- every field, doubles stored bit for
 * bit) are equal. On a mismatch the assertion prints both run
 * reports and the first differing byte of the encodings.
 *
 *     EXPECT_TRUE(sameRun(a, b)) << what;
 */

#ifndef NVMR_TESTS_RUN_IDENTITY_HH
#define NVMR_TESTS_RUN_IDENTITY_HH

#include <gtest/gtest.h>

#include <string>

#include "campaign/cellio.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace nvmr
{

inline ::testing::AssertionResult
sameRun(const RunResult &a, const RunResult &b)
{
    std::string ea = campaign::encodeRunResult(a);
    std::string eb = campaign::encodeRunResult(b);
    if (ea == eb)
        return ::testing::AssertionSuccess();
    size_t at = 0;
    while (at < ea.size() && at < eb.size() && ea[at] == eb[at])
        ++at;
    return ::testing::AssertionFailure()
           << "runs differ (encodings first differ at byte " << at
           << ")\n--- first run\n"
           << formatRunReport(a) << "--- second run\n"
           << formatRunReport(b);
}

} // namespace nvmr

#endif // NVMR_TESTS_RUN_IDENTITY_HH
