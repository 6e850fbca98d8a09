// Pins the benchmark's metric derivations: ratio bases, the exact
// (sample-based) percentiles, the phase-sum invariant, the failure count,
// the CN-local split of traced ops and the warm-up stop rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "derive.h"

namespace perfbench {
namespace {

using sphinx::rdma::EndpointStats;
using sphinx::rdma::Phase;
using sphinx::rdma::TraceEvent;

TEST(Ratio, EmptyBaseIsZeroNotNan) {
  EXPECT_EQ(ratio(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
  EXPECT_DOUBLE_EQ(per_kop(3, 1500), 2.0);
  EXPECT_EQ(per_kop(3, 0), 0.0);
}

TEST(MidQuantile, AllDistinctInterpolatesAtHalfSteps) {
  // Sample j (0-based) sits at mid-share (j + 0.5) / n.
  const std::vector<uint32_t> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(mid_quantile(v, 0.125), 10.0);
  EXPECT_DOUBLE_EQ(mid_quantile(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(mid_quantile(v, 0.75), 35.0);
  EXPECT_DOUBLE_EQ(mid_quantile(v, 0.01), 10.0);   // below the first atom
  EXPECT_DOUBLE_EQ(mid_quantile(v, 0.999), 40.0);  // beyond the last atom
}

TEST(MidQuantile, FollowsShareShiftsInsideOneAtom) {
  // 60% of ops cost exactly 100 ns: a nearest-rank median would read 100
  // for both runs; the mid-quantile moves with the atom's share.
  std::vector<uint32_t> a(60, 100), b(70, 100);
  a.insert(a.end(), 40, 200);
  b.insert(b.end(), 30, 200);
  // a: atom 100 at mid-share 0.30, atom 200 at 0.80 -> 0.5 is 40% along.
  EXPECT_DOUBLE_EQ(mid_quantile(a, 0.5), 140.0);
  // b: 100 at 0.35, 200 at 0.85 -> 30% along.
  EXPECT_DOUBLE_EQ(mid_quantile(b, 0.5), 130.0);
  EXPECT_EQ(mid_quantile({}, 0.5), 0.0);
}

TEST(MidQuantile, InterpolatesDownwardBelowTheAtomMiddle) {
  // 0.5 falls in atom 300 (shares 0.4..1.0, middle 0.7): interpolate
  // between atom 200 (middle 0.2) and 300.
  std::vector<uint32_t> v(40, 200);
  v.insert(v.end(), 60, 300);
  EXPECT_DOUBLE_EQ(mid_quantile(v, 0.5), 200.0 + (0.5 - 0.2) / 0.5 * 100.0);
}

TEST(Percentile, HighestSupportedKeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(10000, 0.999), 10u);
  EXPECT_EQ(highest_supported_percentile(10000), 0.999);
  EXPECT_EQ(highest_supported_percentile(9999), 0.99);
  EXPECT_EQ(highest_supported_percentile(1000), 0.99);
  EXPECT_EQ(highest_supported_percentile(100), 0.9);
  EXPECT_EQ(highest_supported_percentile(20), 0.5);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
}

TEST(PhaseSums, MatchOnlyWhenEveryPhaseAddsUp) {
  EndpointStats net;
  net.round_trips = 5;
  net.bytes_read = 300;
  net.bytes_written = 20;
  net.rtts_by_phase[static_cast<size_t>(Phase::kLeafRead)] = 3;
  net.rtts_by_phase[static_cast<size_t>(Phase::kLock)] = 2;
  net.bytes_by_phase[static_cast<size_t>(Phase::kLeafRead)] = 300;
  net.bytes_by_phase[static_cast<size_t>(Phase::kLock)] = 20;
  EXPECT_TRUE(phase_sums_match(net));
  net.rtts_by_phase[static_cast<size_t>(Phase::kUnattributed)] = 1;
  EXPECT_FALSE(phase_sums_match(net));
  net.rtts_by_phase[static_cast<size_t>(Phase::kUnattributed)] = 0;
  net.bytes_written = 21;
  EXPECT_FALSE(phase_sums_match(net));
}

TEST(Failures, EveryKindCountsAgainstAttempted) {
  Failures f;
  EXPECT_EQ(f.total(), 0u);
  EXPECT_EQ(failed_op_ratio(f, 100), 0.0);
  f.insert_failures = 1;
  f.live_key_misses = 2;
  f.truncated_scans = 3;
  f.tree_ops_failed = 4;
  f.degraded_ops = 5;
  EXPECT_EQ(f.total(), 15u);
  EXPECT_DOUBLE_EQ(failed_op_ratio(f, 300), 0.05);
  EXPECT_EQ(failed_op_ratio(f, 0), 0.0);
}

TEST(LocalTime, OpTimeNotCoveredByRoundTrips) {
  // Worker 0: op [100, 1100) with round trips of 300 and 400 ns inside it,
  // and a round trip of another op after it. Worker 1: a batch span of
  // 2000 ns with one 500 ns round trip, counted as 4 ops.
  std::vector<TraceEvent> ev = {
      {"leaf_read", 150, 300, 0},   {"lock", 600, 400, 0},
      {"op:read", 100, 1000, 0},    {"leaf_read", 1200, 300, 0},
      {"lac_fused_read", 10, 500, 1}, {"op:batch", 0, 2000, 1},
  };
  LocalTime lt;
  add_local_time(ev, 4, &lt);
  EXPECT_EQ(lt.ops, 5u);
  EXPECT_EQ(lt.op_ns, 3000u);
  EXPECT_EQ(lt.rtt_ns, 1200u);
  EXPECT_DOUBLE_EQ(lt.local_ns_per_op(), 1800.0 / 5);
}

TEST(LocalTime, RoundTripSharingTheOpStartIsCovered) {
  std::vector<TraceEvent> ev = {{"leaf_read", 0, 900, 2}, {"op:read", 0, 1000, 2}};
  LocalTime lt;
  add_local_time(ev, 8, &lt);
  EXPECT_EQ(lt.ops, 1u);
  EXPECT_EQ(lt.rtt_ns, 900u);
  EXPECT_DOUBLE_EQ(lt.local_ns_per_op(), 100.0);
}

TEST(WarmUp, LevelledOffWithinRelativeTolerance) {
  EXPECT_TRUE(levelled_off(2.00, 2.01, 0.01));
  EXPECT_FALSE(levelled_off(2.00, 2.05, 0.01));
  EXPECT_TRUE(levelled_off(0, 0, 0.01));
  EXPECT_FALSE(levelled_off(0, 0.1, 0.01));
}

}  // namespace
}  // namespace perfbench
