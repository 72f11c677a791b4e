// The benchmark's arithmetic, kept apart from the harness so its own tests
// can pin it: exact percentiles from raw samples, span self time, and the
// top-k answer gate against the plaintext oracle.

#ifndef ZR_PERFBENCH_MEASURE_H_
#define ZR_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "index/inverted_index.h"

namespace perfbench {

/// A percentile is reported only with at least this many samples above it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the value at
/// 1-based rank ceil(p/100 * n) of the sorted samples. nullopt when fewer
/// than kMinSamplesBeyond samples lie beyond that rank.
std::optional<double> ExactPercentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest rank of percentile `p` among `n`.
size_t SamplesBeyond(size_t n, double p);

/// The highest percentile of the ladder 99.99, 99.9, 99, 95, 90, 75, 50
/// that `n` samples can report; 0 when not even the median can.
double HighestReportablePercentile(size_t n);

/// One timed call into a layer. Spans of one op share `trace_id`;
/// `parent_id` is 0 for the op's root span.
struct Span {
  std::string name;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Nanoseconds of [start_ns, end_ns) covered by the union of `children`
/// (clipped to that interval): overlapping children count once.
uint64_t CoveredNs(uint64_t start_ns, uint64_t end_ns,
                   const std::vector<Span>& children);

/// Self time of every span, in the order given: its duration minus the
/// part of it its direct children cover.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// How an answer must relate to the oracle's.
enum class Match {
  /// The oracle's answer: the same score at every rank, each document one
  /// the oracle ranks with that score (ties at equal scores may reorder).
  kExact,
  /// After the run's own writes: with documents >= the synthetic base
  /// dropped, a prefix of the oracle's answer.
  kPrefix,
  /// After the run's own writes, for a term whose list order is
  /// pseudo-random by design (no trained RSTF): with synthetic documents
  /// dropped, each document one the oracle ranks with that score.
  kMember,
};

/// Checks one top-k answer against the oracle's under `match`. In every
/// mode an answer shorter than k (the list ran out) must hold all of the
/// oracle's documents. Returns an empty string on a match, else what
/// differed.
std::string CheckAnswer(const std::vector<zr::index::ScoredDoc>& got,
                        const std::vector<zr::index::ScoredDoc>& oracle,
                        size_t k, Match match, uint32_t synthetic_base);

}  // namespace perfbench

#endif  // ZR_PERFBENCH_MEASURE_H_
