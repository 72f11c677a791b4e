#include "measure.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

using zr::index::ScoredDoc;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRankOnRawSamples) {
  std::vector<double> v = OneTo(1000);
  std::reverse(v.begin(), v.end());  // order of arrival does not matter
  EXPECT_EQ(ExactPercentile(v, 50.0), 500.0);
  EXPECT_EQ(ExactPercentile(v, 99.0), 990.0);
  EXPECT_EQ(ExactPercentile(v, 90.0), 900.0);
}

TEST(PercentileTest, RequiresTenSamplesBeyond) {
  // n = 1000: p99 is rank 990, 10 samples beyond it — reportable.
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_TRUE(ExactPercentile(OneTo(1000), 99.0).has_value());
  // n = 999: rank ceil(989.01) = 990, only 9 beyond — refused.
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_FALSE(ExactPercentile(OneTo(999), 99.0).has_value());
  // Small samples: 19 cannot report even a median (rank 10, 9 beyond).
  EXPECT_FALSE(ExactPercentile(OneTo(19), 50.0).has_value());
  EXPECT_EQ(ExactPercentile(OneTo(20), 50.0), 10.0);
  EXPECT_FALSE(ExactPercentile({}, 50.0).has_value());
}

TEST(PercentileTest, HighestReportablePercentile) {
  EXPECT_EQ(HighestReportablePercentile(0), 0.0);
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
  EXPECT_EQ(HighestReportablePercentile(20), 50.0);
  EXPECT_EQ(HighestReportablePercentile(40), 75.0);
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(999), 95.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
}

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t start, uint64_t end) {
  return Span{"x", 1, id, parent, start, end};
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Two parallel children covering [10, 60) together: 50 ns, not 60.
  EXPECT_EQ(CoveredNs(0, 100, {MakeSpan(2, 1, 10, 40), MakeSpan(3, 1, 30, 60)}),
            50u);
  // A child nested inside another and a duplicate add nothing.
  EXPECT_EQ(CoveredNs(0, 100, {MakeSpan(2, 1, 10, 40), MakeSpan(3, 1, 20, 30),
                               MakeSpan(4, 1, 10, 40)}),
            30u);
  // Children are clipped to the parent's interval.
  EXPECT_EQ(CoveredNs(0, 20, {MakeSpan(2, 1, 15, 30)}), 5u);
  EXPECT_EQ(CoveredNs(0, 20, {MakeSpan(2, 1, 30, 40)}), 0u);
}

TEST(SelfTimeTest, SelfIsDurationMinusDirectChildren) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),   // root
      MakeSpan(2, 1, 10, 40),   // child, overlaps 3
      MakeSpan(3, 1, 30, 60),   // child
      MakeSpan(4, 2, 20, 30),   // grandchild: only 2 loses it
  };
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<uint64_t>{50, 20, 30, 10}));

  // Sequential children: self times add up to the root's duration.
  std::vector<Span> chain = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40),
                             MakeSpan(3, 1, 50, 90), MakeSpan(4, 3, 60, 70)};
  self = SelfTimes(chain);
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), uint64_t{0}), 100u);
}

constexpr uint32_t kSynthetic = 1000;

TEST(AnswerGateTest, ExactAnswerPasses) {
  std::vector<ScoredDoc> oracle = {{1, 0.9}, {2, 0.5}, {3, 0.5}, {4, 0.1}};
  EXPECT_EQ(CheckAnswer(oracle, oracle, 4, Match::kExact, kSynthetic), "");
  // Equal scores may come back in either order.
  std::vector<ScoredDoc> tie = {{1, 0.9}, {3, 0.5}, {2, 0.5}, {4, 0.1}};
  EXPECT_EQ(CheckAnswer(tie, oracle, 4, Match::kExact, kSynthetic), "");
}

TEST(AnswerGateTest, WrongAnswersFail) {
  std::vector<ScoredDoc> oracle = {{1, 0.9}, {2, 0.5}, {3, 0.4}};
  // A missed document, replaced by a lower-scored one.
  EXPECT_NE(CheckAnswer({{1, 0.9}, {3, 0.4}, {7, 0.3}}, oracle, 3, Match::kExact,
                        kSynthetic),
            "");
  // Right score, wrong document.
  EXPECT_NE(CheckAnswer({{1, 0.9}, {9, 0.5}, {3, 0.4}}, oracle, 3, Match::kExact,
                        kSynthetic),
            "");
  // A document repeated.
  EXPECT_NE(CheckAnswer({{1, 0.9}, {1, 0.9}, {3, 0.4}}, oracle, 3, Match::kExact,
                        kSynthetic),
            "");
  // Too short.
  EXPECT_NE(CheckAnswer({{1, 0.9}, {2, 0.5}}, oracle, 3, Match::kExact, kSynthetic), "");
  // Before the window even a synthetic document is wrong.
  EXPECT_NE(CheckAnswer({{1, 0.9}, {2, 0.5}, {kSynthetic, 0.45}}, oracle, 3,
                        Match::kExact, kSynthetic),
            "");
}

TEST(AnswerGateTest, AfterTheWindowSyntheticDocsLeaveAPrefix) {
  std::vector<ScoredDoc> oracle = {{1, 0.9}, {2, 0.5}, {3, 0.4}};
  // Two of the run's own inserts push the oracle's tail out of the top 3.
  EXPECT_EQ(CheckAnswer({{kSynthetic, 0.95}, {1, 0.9}, {kSynthetic + 1, 0.6}},
                        oracle, 3, Match::kPrefix, kSynthetic),
            "");
  // Not a prefix: the oracle's second document was skipped.
  EXPECT_NE(CheckAnswer({{kSynthetic, 0.95}, {1, 0.9}, {3, 0.4}}, oracle, 3,
                        Match::kPrefix, kSynthetic),
            "");
  // A short answer (list exhausted) must hold every oracle document.
  EXPECT_NE(CheckAnswer({{kSynthetic, 0.95}, {1, 0.9}}, oracle, 4, Match::kPrefix,
                        kSynthetic),
            "");
  EXPECT_EQ(CheckAnswer({{kSynthetic, 0.95}, {1, 0.9}, {2, 0.5}, {3, 0.4}},
                        oracle, 4, Match::kPrefix, kSynthetic),
            "");
}

TEST(AnswerGateTest, MemberModeAcceptsAnyGenuineSubset) {
  // Untrained terms come back in pseudo-random order once the run's own
  // inserts make the list longer than k: any oracle documents, with their
  // oracle scores, pass.
  std::vector<ScoredDoc> oracle = {{1, 0.9}, {2, 0.5}, {3, 0.4}};
  EXPECT_EQ(CheckAnswer({{kSynthetic, 0.95}, {3, 0.4}, {1, 0.9}}, oracle, 3,
                        Match::kMember, kSynthetic),
            "");
  // A genuine document with a wrong score, or a foreign document, fails.
  EXPECT_NE(CheckAnswer({{kSynthetic, 0.95}, {3, 0.5}, {1, 0.9}}, oracle, 3,
                        Match::kMember, kSynthetic),
            "");
  EXPECT_NE(CheckAnswer({{kSynthetic, 0.95}, {8, 0.4}, {1, 0.9}}, oracle, 3,
                        Match::kMember, kSynthetic),
            "");
}

}  // namespace
}  // namespace perfbench
