#include "measure.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double p) {
  // The epsilon keeps p99.9 of 10000 samples at rank 9990: 99.9 has no
  // exact binary form, and the product would otherwise round up past it.
  double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

std::optional<double> ExactPercentile(std::vector<double> samples, double p) {
  if (samples.empty() || SamplesBeyond(samples.size(), p) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double HighestReportablePercentile(size_t n) {
  for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n > 0 && SamplesBeyond(n, p) >= kMinSamplesBeyond) return p;
  }
  return 0.0;
}

uint64_t CoveredNs(uint64_t start_ns, uint64_t end_ns,
                   const std::vector<Span>& children) {
  std::vector<std::pair<uint64_t, uint64_t>> clipped;
  for (const Span& c : children) {
    uint64_t s = std::max(c.start_ns, start_ns);
    uint64_t e = std::min(c.end_ns, end_ns);
    if (s < e) clipped.emplace_back(s, e);
  }
  std::sort(clipped.begin(), clipped.end());
  uint64_t covered = 0, run_start = 0, run_end = 0;
  bool open = false;
  for (const auto& [s, e] : clipped) {
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent_id != 0) children[s.parent_id].push_back(s);
  }
  std::vector<uint64_t> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    auto it = children.find(s.span_id);
    uint64_t covered =
        it == children.end() ? 0 : CoveredNs(s.start_ns, s.end_ns, it->second);
    self.push_back(s.duration_ns() - covered);
  }
  return self;
}

std::string CheckAnswer(const std::vector<zr::index::ScoredDoc>& got,
                        const std::vector<zr::index::ScoredDoc>& oracle,
                        size_t k, Match match, uint32_t synthetic_base) {
  const bool exact = match == Match::kExact;
  std::vector<zr::index::ScoredDoc> kept;
  for (const zr::index::ScoredDoc& d : got) {
    if (exact || d.doc_id < synthetic_base) kept.push_back(d);
  }
  if (got.size() > k) return "more than k answers";
  if (kept.size() > oracle.size()) return "more answers than the oracle";
  // A short answer means the list ran out, so every oracle hit must be in.
  if ((exact || got.size() < k) && kept.size() != oracle.size()) {
    return "answer has " + std::to_string(kept.size()) + " documents, oracle " +
           std::to_string(oracle.size());
  }
  // Documents the oracle ranks at each score: a tie may come back in any
  // order, but only with the score the oracle gives it.
  std::map<std::pair<double, uint32_t>, int> oracle_docs;
  for (const zr::index::ScoredDoc& d : oracle) {
    ++oracle_docs[{d.score, d.doc_id}];
  }
  for (size_t i = 0; i < kept.size(); ++i) {
    if (match != Match::kMember && kept[i].score != oracle[i].score) {
      return "rank " + std::to_string(i) + " score differs";
    }
    if (--oracle_docs[{kept[i].score, kept[i].doc_id}] < 0) {
      return "rank " + std::to_string(i) + " document " +
             std::to_string(kept[i].doc_id) + " not in the oracle's answer";
    }
  }
  return "";
}

}  // namespace perfbench
