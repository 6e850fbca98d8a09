// Pure metric derivations of the benchmark: ratios with explicit bases,
// exact percentiles from raw samples, the phase-sum invariant, the failure
// count and the CN-local share of traced op spans. Kept free of I/O and of
// the index so tests/derive_test.cpp can pin every definition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "rdma/stats.h"
#include "rdma/trace.h"

namespace perfbench {

// num / base, or 0 when the base is empty (a ratio over nothing is not a
// measurement, and 0 keeps "never happened" distinct from NaN in JSON).
inline double ratio(double num, double base) {
  return base > 0 ? num / base : 0.0;
}

inline double per_kop(uint64_t count, uint64_t ops) {
  return ratio(1000.0 * static_cast<double>(count), static_cast<double>(ops));
}

// Mid-quantile (Parzen) of ascending-sorted samples. Virtual latencies
// are discrete: every warm one-round-trip read costs exactly the same ns,
// so a nearest-rank median sits on that atom and cannot move until the
// atom's share crosses 50%. The mid-quantile places each distinct value at
// the middle of its cumulative share, F(x-) + P(x)/2, and interpolates
// linearly between neighbours, so it follows a shift of share between
// atoms; on all-distinct samples it is the usual interpolated percentile.
inline double mid_quantile(const std::vector<uint32_t>& sorted, double p) {
  const size_t n = sorted.size();
  if (n == 0) return 0.0;
  const double dn = static_cast<double>(n);
  size_t r = static_cast<size_t>(std::ceil(p * dn));
  r = std::clamp<size_t>(r, 1, n) - 1;
  const uint32_t x = sorted[r];
  const auto first = sorted.begin();
  const size_t lo = std::lower_bound(first, sorted.end(), x) - first;
  const size_t hi = std::upper_bound(first, sorted.end(), x) - first;
  const double mx = (static_cast<double>(lo) + (hi - lo) / 2.0) / dn;
  if (p >= mx) {
    if (hi == n) return x;
    const uint32_t y = sorted[hi];
    const size_t hi2 = std::upper_bound(first + hi, sorted.end(), y) - first;
    const double my = (static_cast<double>(hi) + (hi2 - hi) / 2.0) / dn;
    return x + (p - mx) / (my - mx) * (static_cast<double>(y) - x);
  }
  if (lo == 0) return x;
  const uint32_t w = sorted[lo - 1];
  const size_t lo2 = std::lower_bound(first, first + lo, w) - first;
  const double mw = (static_cast<double>(lo2) + (lo - lo2) / 2.0) / dn;
  return w + (p - mw) / (mx - mw) * (static_cast<double>(x) - w);
}

// Number of samples strictly beyond the nearest-rank percentile `p` (the
// sample at rank ceil(p * n)).
inline uint64_t samples_beyond(uint64_t n, double p) {
  if (n == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);
  return n - rank;
}

// The highest of p99.9 / p99 / p90 / p50 that has at least ten samples
// beyond it (a tail percentile resting on fewer samples is one outlier's
// value, not a distribution's). 0 when even the median does not qualify.
inline double highest_supported_percentile(uint64_t n) {
  for (double p : {0.999, 0.99, 0.9, 0.5}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

// The per-phase round-trip and byte counters are bumped at the same sites
// as the totals, so they must sum to them exactly.
inline bool phase_sums_match(const sphinx::rdma::EndpointStats& net) {
  return net.rtts_sum_by_phase() == net.round_trips &&
         net.bytes_sum_by_phase() == net.bytes_total();
}

// Every way an attempted op can fail. Reads of keys another worker removed
// are not failures (they are correct misses); a mutation that misses a key
// the oracle holds live is.
struct Failures {
  uint64_t insert_failures = 0;      // insert() returned false
  uint64_t live_key_misses = 0;      // remove/update of an oracle-live key
  uint64_t truncated_scans = 0;      // scan reported possible missing keys
  uint64_t tree_ops_failed = 0;      // TreeStats::ops_failed
  uint64_t degraded_ops = 0;         // mutations abandoned for lack of memory

  uint64_t total() const {
    return insert_failures + live_key_misses + truncated_scans +
           tree_ops_failed + degraded_ops;
  }
  Failures& operator+=(const Failures& o) {
    insert_failures += o.insert_failures;
    live_key_misses += o.live_key_misses;
    truncated_scans += o.truncated_scans;
    tree_ops_failed += o.tree_ops_failed;
    degraded_ops += o.degraded_ops;
    return *this;
  }
};

inline double failed_op_ratio(const Failures& f, uint64_t attempted) {
  return ratio(static_cast<double>(f.total()), static_cast<double>(attempted));
}

// CN-local virtual time of traced ops: each "op:*" span's length minus the
// round-trip spans of the same worker that lie inside it. Spans come from
// the runner's TraceRecorder, where a worker's round trips never overlap.
// `ops_per_batch_span` converts an "op:batch" span into the ops it carried.
struct LocalTime {
  uint64_t ops = 0;
  uint64_t op_ns = 0;
  uint64_t rtt_ns = 0;

  double local_ns_per_op() const {
    return ratio(static_cast<double>(op_ns - std::min(op_ns, rtt_ns)),
                 static_cast<double>(ops));
  }
};

inline void add_local_time(const std::vector<sphinx::rdma::TraceEvent>& events,
                           uint32_t ops_per_batch_span, LocalTime* out) {
  // Events of one worker are appended in clock order, round trips before
  // the op span that encloses them; group by worker and sweep.
  std::vector<const sphinx::rdma::TraceEvent*> sorted;
  sorted.reserve(events.size());
  for (const auto& e : events) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto* a, const auto* b) {
                     if (a->tid != b->tid) return a->tid < b->tid;
                     return a->ts_ns < b->ts_ns;
                   });
  auto is_op = [](const sphinx::rdma::TraceEvent* e) {
    return std::string(e->name).rfind("op:", 0) == 0;
  };
  for (size_t i = 0; i < sorted.size(); ++i) {
    const auto* op = sorted[i];
    if (!is_op(op)) continue;
    const uint64_t end = op->ts_ns + op->dur_ns;
    uint64_t covered = 0;
    // Round trips start at or after the op and end by its end; the op span
    // sorts before them when they share its start stamp, so scan both ways.
    for (size_t j = i; j-- > 0;) {
      const auto* e = sorted[j];
      if (e->tid != op->tid || e->ts_ns < op->ts_ns) break;
      if (!is_op(e) && e->ts_ns + e->dur_ns <= end) covered += e->dur_ns;
    }
    for (size_t j = i + 1; j < sorted.size(); ++j) {
      const auto* e = sorted[j];
      if (e->tid != op->tid || e->ts_ns >= end) break;
      if (!is_op(e) && e->ts_ns + e->dur_ns <= end) covered += e->dur_ns;
    }
    const bool batch = std::string(op->name) == "op:batch";
    out->ops += batch ? ops_per_batch_span : 1;
    out->op_ns += op->dur_ns;
    out->rtt_ns += covered;
  }
}

// Warm-up stop rule: the per-chunk figure has levelled off when it moved
// by less than `rel_tol` of its previous value (or both are zero).
inline bool levelled_off(double prev, double cur, double rel_tol) {
  if (prev == 0 && cur == 0) return true;
  if (prev == 0) return false;
  return std::fabs(cur - prev) <= rel_tol * std::fabs(prev);
}

}  // namespace perfbench
