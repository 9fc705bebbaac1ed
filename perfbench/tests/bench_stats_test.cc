#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_stats.h"
#include "common/stats.h"
#include "paper_refs.h"
#include "spans.h"

using namespace perfbench;

TEST(PercentileRule, RefusesFewerThanTenSamplesBeyond)
{
    std::vector<double> v(199);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i);
    EXPECT_FALSE(percentile(v, 0.95).has_value()); // 9 beyond
    v.push_back(199);
    ASSERT_TRUE(percentile(v, 0.95).has_value()); // exactly 10 beyond
    EXPECT_DOUBLE_EQ(*percentile(v, 0.95), 0.95 * 199);
    EXPECT_FALSE(percentile(v, 0.99).has_value());
    EXPECT_FALSE(percentile({}, 0.5).has_value());
    EXPECT_EQ(samplesBeyond(120000, 0.99), 1200u);
}

TEST(PercentileRule, MedianInterpolates)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
    EXPECT_DOUBLE_EQ(*percentile(std::vector<double>(20, 7.0), 0.5), 7.0);
}

TEST(PaperError, GeomeanMatchesTableV)
{
    std::vector<double> frac;
    for (double pct : gpulp::paper::kArrayShfl)
        frac.push_back(pct / 100.0);
    // The paper prints its geomean to one decimal.
    EXPECT_NEAR(gpulp::geomeanOverhead(frac) * 100.0,
                gpulp::paper::kArrayShflGmean, 0.05);
}

TEST(PaperError, OverheadErrPpAgainstTableV)
{
    std::vector<double> pct(std::begin(gpulp::paper::kArrayShfl),
                            std::end(gpulp::paper::kArrayShfl));
    EXPECT_DOUBLE_EQ(overheadErrPp(pct), 0.0);
    for (size_t i = 0; i < pct.size(); ++i)
        pct[i] += i % 2 == 0 ? 1.5 : -0.5;
    EXPECT_DOUBLE_EQ(overheadErrPp(pct), 1.0);
    EXPECT_THROW(overheadErrPp(std::vector<double>(7, 0.0)),
                 std::invalid_argument);
}

TEST(FingerprintHash, Fnv1aKnownVectorsAndOrder)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    Fingerprint ab, ba, ab2;
    ab.add(1);
    ab.add(2);
    ba.add(2);
    ba.add(1);
    ab2.add(1);
    ab2.add(2);
    EXPECT_EQ(ab, ab2);
    EXPECT_NE(ab, ba);
}

TEST(NamedChecks, ForcedFailureRaisesErrorRateAndIsKept)
{
    Checks checks;
    for (int i = 0; i < 3; ++i)
        checks.record("verify", true);
    EXPECT_DOUBLE_EQ(checks.errorRate(), 0.0);
    EXPECT_FALSE(checks.record("forced", false));
    EXPECT_EQ(checks.attempted(), 4u);
    EXPECT_EQ(checks.failed(), 1u);
    EXPECT_DOUBLE_EQ(checks.errorRate(), 0.25);
    ASSERT_EQ(checks.byName().count("forced"), 1u);
    EXPECT_EQ(checks.byName().at("forced").second, 1u);
    const std::string line =
        resultJson(checks, {{"setup_s", 1.25, "s"}});
    EXPECT_EQ(line, "{\"correct\": false, \"attempted\": 4, \"failed\": 1, "
                    "\"metrics\": {\"setup_s\": {\"value\": 1.25, "
                    "\"unit\": \"s\"}}}");
}

TEST(Spans, SelfTimeExcludesChildren)
{
    SpanLog log(true);
    {
        SpanLog::Scope outer(log, "pass", 1);
        SpanLog::Scope inner(log, "call", 1);
    }
    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[1].parent, log.spans()[0].id);
    EXPECT_NEAR(log.selfSeconds("pass"),
                log.totalSeconds("pass") - log.totalSeconds("call"), 1e-12);
    SpanLog off;
    {
        SpanLog::Scope s(off, "pass", 1);
    }
    EXPECT_TRUE(off.spans().empty());
}
