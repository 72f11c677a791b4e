#include "core/zerber_r_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/pipeline.h"
#include "net/transport.h"

namespace zr::core {
namespace {

// One query round trip as the backend saw it.
struct Round {
  bool multi = false;  ///< MultiFetch (true) or Fetch (false)
  std::vector<net::FetchRange> ranges;
  std::vector<size_t> elements;  ///< elements answered per range

  friend bool operator==(const Round&, const Round&) = default;
};

// Forwards to a backend and records every query exchange. Can fail the
// n-th MultiFetch call (1-based) without forwarding it.
class RecordingService : public net::ZerberService {
 public:
  explicit RecordingService(net::ZerberService* backend) : backend_(backend) {}

  StatusOr<net::InsertResponse> Insert(
      const net::InsertRequest& request) override {
    return backend_->Insert(request);
  }
  StatusOr<net::QueryResponse> Fetch(
      const net::QueryRequest& request) override {
    auto response = backend_->Fetch(request);
    Round round;
    round.ranges.push_back(
        net::FetchRange{request.list, request.offset, request.count});
    if (response.ok()) round.elements.push_back(response->elements.size());
    rounds.push_back(std::move(round));
    return response;
  }
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override {
    Round round;
    round.multi = true;
    round.ranges = request.fetches;
    if (++multifetch_calls == fail_multifetch_call) {
      rounds.push_back(std::move(round));
      return Status::Unavailable("injected MultiFetch failure");
    }
    auto response = backend_->MultiFetch(request);
    if (response.ok()) {
      for (const net::QueryResponse& r : response->responses) {
        round.elements.push_back(r.elements.size());
      }
    }
    rounds.push_back(std::move(round));
    return response;
  }
  StatusOr<net::DeleteResponse> Delete(
      const net::DeleteRequest& request) override {
    return backend_->Delete(request);
  }

  std::vector<Round> rounds;
  size_t multifetch_calls = 0;
  size_t fail_multifetch_call = 0;  ///< 0: never fail

 private:
  net::ZerberService* backend_;
};

// One shared deployment for all tests in this suite (construction builds an
// encrypted index; reuse keeps the suite fast).
class ZerberRClientTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.003;  // fixed: sigma selection has its own tests
    options.seed = 2025;
    auto pipeline = BuildPipeline(options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    pipeline_ = pipeline->release();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  // A client of the pipeline's user speaking to `service`.
  static ZerberRClient ClientOn(net::ZerberService* service) {
    return ZerberRClient(pipeline_->user, pipeline_->keys.get(),
                         &pipeline_->plan, service,
                         &pipeline_->corpus.vocabulary(),
                         pipeline_->assigner.get(),
                         pipeline_->client->protocol());
  }

  // The rounds a single-term top-k query of `term` sends.
  static std::vector<Round> SingleTermRounds(text::TermId term, size_t k) {
    RecordingService recorder(pipeline_->service.get());
    ZerberRClient client = ClientOn(&recorder);
    EXPECT_TRUE(client.QueryTopK(term, k).ok());
    return recorder.rounds;
  }

  // Terms whose top-10 query needs exactly 1 and 2 round trips and at
  // least 3 (the first of each in vocabulary order).
  struct TermsByRounds {
    text::TermId one = text::kInvalidTermId;
    text::TermId two = text::kInvalidTermId;
    text::TermId three_plus = text::kInvalidTermId;
  };
  static TermsByRounds FindTermsByRounds() {
    TermsByRounds found;
    for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
      if (pipeline_->corpus.DocumentFrequency(t) == 0) continue;
      size_t n = SingleTermRounds(t, 10).size();
      text::TermId* slot = n == 1   ? &found.one
                           : n == 2 ? &found.two
                                    : &found.three_plus;
      if (*slot == text::kInvalidTermId) *slot = t;
      if (found.one != text::kInvalidTermId &&
          found.two != text::kInvalidTermId &&
          found.three_plus != text::kInvalidTermId) {
        break;
      }
    }
    return found;
  }

  static Pipeline* pipeline_;
};

Pipeline* ZerberRClientTest::pipeline_ = nullptr;

TEST_F(ZerberRClientTest, IndexHoldsOneElementPerPosting) {
  EXPECT_EQ(pipeline_->server->TotalElements(),
            pipeline_->corpus.TotalPostings());
}

TEST_F(ZerberRClientTest, TopKDocSetMatchesPlaintextBaseline) {
  // The headline IR property: for every term with a *trained* RSTF,
  // single-term top-k through the confidential index returns the same
  // documents as an ordinary inverted index (modulo ties at the k-th score,
  // where any winner is correct). Terms absent from the training sample get
  // a random TRS by design (paper Section 5.1.1) and are exercised in
  // UntrainedRareTermStillReturnsCompleteResults below.
  ASSERT_TRUE(pipeline_->baseline.has_value());
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(term);
    if (df < 3 || term % 17 != 0) continue;  // sample for speed
    if (!pipeline_->assigner->HasRstf(term)) continue;
    const size_t k = 5;
    auto expected = pipeline_->baseline->TopK(term, k);
    auto got = pipeline_->client->QueryTopK(term, k);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->results.size(), expected.size()) << "term " << term;
    for (size_t i = 0; i < expected.size(); ++i) {
      // Scores must agree exactly (same Equation 4 computation).
      EXPECT_DOUBLE_EQ(got->results[i].score, expected[i].score)
          << "term " << term << " rank " << i;
    }
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST_F(ZerberRClientTest, UntrainedRareTermStillReturnsCompleteResults) {
  // Terms outside the training sample have pseudo-random TRS, so their
  // list order is meaningless — but once the client exhausts the list
  // (df <= k), it has every element and client-side sorting restores the
  // exact baseline ranking.
  ASSERT_TRUE(pipeline_->baseline.has_value());
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(term);
    if (df == 0 || df > 5 || pipeline_->assigner->HasRstf(term)) continue;
    auto got = pipeline_->client->QueryTopK(term, 10);  // k >= df
    ASSERT_TRUE(got.ok());
    auto expected = pipeline_->baseline->TopK(term, 10);
    ASSERT_EQ(got->results.size(), expected.size()) << "term " << term;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(got->results[i].score, expected[i].score);
    }
    if (++checked >= 10) break;
  }
  EXPECT_GE(checked, 3u);
}

TEST_F(ZerberRClientTest, TraceCountsAreConsistent) {
  text::TermId term = pipeline_->corpus.vocabulary().AllTermIds()[0];
  auto result = pipeline_->client->QueryTopK(term, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->trace.requests, 1u);
  EXPECT_GE(result->trace.elements_fetched, result->trace.hits);
  EXPECT_GT(result->trace.bytes_fetched, 0u);
  EXPECT_EQ(result->results.size(),
            std::min<uint64_t>(result->trace.hits, 10));
}

TEST_F(ZerberRClientTest, FetchedElementsFollowDoublingSchedule) {
  // TRes after n requests must not exceed Equation 12's cumulative size.
  text::TermId term = pipeline_->corpus.vocabulary().AllTermIds()[2];
  auto result = pipeline_->client->QueryTopK(term, 10);
  ASSERT_TRUE(result.ok());
  size_t b = pipeline_->client->protocol().initial_response_size;
  EXPECT_LE(result->trace.elements_fetched,
            CumulativeResponseSize(b, result->trace.requests - 1));
}

TEST_F(ZerberRClientTest, FrequentTermAnsweredInFewRequests) {
  // The most frequent term dominates its merged list, so its top-k sits in
  // the head: 1-2 requests at b = k.
  text::TermId frequent = 0;
  uint64_t best_df = 0;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(t) > best_df) {
      best_df = pipeline_->corpus.DocumentFrequency(t);
      frequent = t;
    }
  }
  auto result = pipeline_->client->QueryTopK(frequent, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->trace.requests, 3u);
  EXPECT_EQ(result->results.size(), 10u);
}

TEST_F(ZerberRClientTest, ExhaustedListReturnsAllAvailableHits) {
  // A df=1 term cannot produce 10 hits; protocol must stop at exhaustion.
  text::TermId rare = text::kInvalidTermId;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(t) == 1) {
      rare = t;
      break;
    }
  }
  ASSERT_NE(rare, text::kInvalidTermId);
  auto result = pipeline_->client->QueryTopK(rare, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->results.size(), 1u);
  EXPECT_TRUE(result->trace.exhausted);
}

TEST_F(ZerberRClientTest, ResultsOrderedByDecryptedScore) {
  for (text::TermId term : {3u, 9u, 27u}) {
    if (pipeline_->corpus.DocumentFrequency(term) == 0) continue;
    auto result = pipeline_->client->QueryTopK(term, 10);
    ASSERT_TRUE(result.ok());
    for (size_t i = 1; i < result->results.size(); ++i) {
      EXPECT_GE(result->results[i - 1].score, result->results[i].score);
    }
  }
}

TEST_F(ZerberRClientTest, MultiTermMergesSingleTermResults) {
  auto ids = pipeline_->corpus.vocabulary().AllTermIds();
  std::vector<text::TermId> terms{ids[0], ids[1]};
  auto multi = pipeline_->client->QueryTopKMulti(terms, 5);
  ASSERT_TRUE(multi.ok());
  EXPECT_LE(multi->results.size(), 5u);
  auto a = pipeline_->client->QueryTopK(ids[0], 5);
  auto b = pipeline_->client->QueryTopK(ids[1], 5);
  ASSERT_TRUE(a.ok() && b.ok());
  // Each round trip carries every unfinished term's next range, so the
  // query takes as many round trips as its slowest term.
  EXPECT_EQ(multi->trace.requests,
            std::max(a->trace.requests, b->trace.requests));
  EXPECT_EQ(multi->trace.elements_fetched,
            a->trace.elements_fetched + b->trace.elements_fetched);
  // Every multi result doc must come from one of the single-term results.
  std::set<text::DocId> sources;
  for (const auto& d : a->results) sources.insert(d.doc_id);
  for (const auto& d : b->results) sources.insert(d.doc_id);
  for (const auto& d : multi->results) {
    EXPECT_TRUE(sources.count(d.doc_id) > 0);
  }
}

TEST_F(ZerberRClientTest, SingleTermQuerySendsOneFetchPerRequest) {
  // A single-term query's wire traffic is one Fetch per request of the
  // doubling schedule, never a MultiFetch: request i reads b * 2^i
  // elements from where the previous response ended.
  RecordingService recorder(pipeline_->service.get());
  net::LoopbackTransport loopback(&recorder);
  ZerberRClient client = ClientOn(&loopback);
  const size_t b = client.protocol().initial_response_size;
  TermsByRounds terms = FindTermsByRounds();
  for (text::TermId term : {terms.one, terms.two, terms.three_plus}) {
    ASSERT_NE(term, text::kInvalidTermId);
    recorder.rounds.clear();
    loopback.ResetStats();
    auto result = client.QueryTopK(term, 10);
    ASSERT_TRUE(result.ok()) << result.status();

    ASSERT_EQ(recorder.rounds.size(), result->trace.requests);
    uint64_t offset = 0, bytes_up = 0;
    for (size_t i = 0; i < recorder.rounds.size(); ++i) {
      const Round& round = recorder.rounds[i];
      EXPECT_FALSE(round.multi) << "term " << term << " request " << i;
      ASSERT_EQ(round.ranges.size(), 1u);
      EXPECT_EQ(round.ranges[0].list, recorder.rounds[0].ranges[0].list);
      EXPECT_EQ(round.ranges[0].offset, offset);
      EXPECT_EQ(round.ranges[0].count, RequestSize(b, i));
      offset += round.elements.at(0);
      bytes_up += net::WireSizeOfQueryRequest(
          net::QueryRequest{pipeline_->user, round.ranges[0].list,
                            round.ranges[0].offset, round.ranges[0].count});
    }
    EXPECT_EQ(loopback.stats().exchanges, recorder.rounds.size());
    EXPECT_EQ(loopback.stats().bytes_up, bytes_up);
    EXPECT_EQ(loopback.stats().bytes_down, result->trace.bytes_fetched);
    EXPECT_EQ(result->trace.elements_fetched, offset);
  }
}

TEST_F(ZerberRClientTest, MultiTermRoundsCarryEachOpenTermOnce) {
  // Each term of a multi-term query reads exactly the ranges it reads on
  // its own; round r carries the r-th range of every term that needs more
  // than r requests, in query order, as one exchange.
  TermsByRounds found = FindTermsByRounds();
  std::vector<text::TermId> terms = {found.two, found.three_plus, found.one};
  for (text::TermId t : terms) ASSERT_NE(t, text::kInvalidTermId);

  std::vector<std::vector<Round>> single;
  uint64_t elements = 0, hits = 0;
  size_t most_rounds = 0;
  for (text::TermId t : terms) {
    single.push_back(SingleTermRounds(t, 10));
    most_rounds = std::max(most_rounds, single.back().size());
    auto alone = pipeline_->client->QueryTopK(t, 10);
    ASSERT_TRUE(alone.ok());
    elements += alone->trace.elements_fetched;
    hits += alone->trace.hits;
  }
  std::vector<Round> expected(most_rounds);
  for (size_t r = 0; r < most_rounds; ++r) {
    for (const std::vector<Round>& rounds : single) {
      if (r >= rounds.size()) continue;
      expected[r].ranges.push_back(rounds[r].ranges[0]);
      expected[r].elements.push_back(rounds[r].elements[0]);
    }
    expected[r].multi = expected[r].ranges.size() > 1;
  }

  RecordingService recorder(pipeline_->service.get());
  ZerberRClient client = ClientOn(&recorder);
  auto multi = client.QueryTopKMulti(terms, 10);
  ASSERT_TRUE(multi.ok()) << multi.status();
  EXPECT_EQ(recorder.rounds, expected);
  EXPECT_EQ(multi->trace.requests, most_rounds);
  EXPECT_EQ(multi->trace.elements_fetched, elements);
  EXPECT_EQ(multi->trace.hits, hits);
}

TEST_F(ZerberRClientTest, FailedFollowUpRoundFailsTheQuery) {
  // Both terms need a second round, so it travels as a MultiFetch; when
  // that exchange fails the query reports the error and returns nothing.
  TermsByRounds found = FindTermsByRounds();
  ASSERT_NE(found.two, text::kInvalidTermId);
  ASSERT_NE(found.three_plus, text::kInvalidTermId);
  RecordingService recorder(pipeline_->service.get());
  recorder.fail_multifetch_call = 2;
  ZerberRClient client = ClientOn(&recorder);
  auto result = client.QueryTopKMulti({found.two, found.three_plus}, 10);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
  ASSERT_EQ(recorder.rounds.size(), 2u);
  EXPECT_TRUE(recorder.rounds[1].multi);
  EXPECT_EQ(recorder.rounds[1].ranges.size(), 2u);
}

TEST_F(ZerberRClientTest, MultiTermTraceMatchesTransportStats) {
  // trace.requests and trace.bytes_fetched are the round trips and
  // response bytes the transport moved, with and without serialization.
  TermsByRounds found = FindTermsByRounds();
  auto ids = pipeline_->corpus.vocabulary().AllTermIds();
  std::vector<std::vector<text::TermId>> queries = {
      {found.two, found.three_plus, found.one},
      {found.one, found.two},
      {ids[0], ids[1], ids[4]},
      {found.three_plus},
  };
  net::DirectTransport direct(pipeline_->service.get());
  net::LoopbackTransport loopback(pipeline_->service.get());
  for (net::Transport* transport :
       std::initializer_list<net::Transport*>{&direct, &loopback}) {
    ZerberRClient client = ClientOn(transport);
    for (const auto& terms : queries) {
      transport->ResetStats();
      auto result = client.QueryTopKMulti(terms, 10);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->trace.requests, transport->stats().exchanges);
      EXPECT_EQ(result->trace.bytes_fetched, transport->stats().bytes_down);
    }
  }
}

TEST_F(ZerberRClientTest, LargerInitialResponseReducesRequests) {
  text::TermId term = text::kInvalidTermId;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(t);
    if (df >= 10 && df <= 30) {
      term = t;
      break;
    }
  }
  ASSERT_NE(term, text::kInvalidTermId);

  ProtocolOptions small;
  small.initial_response_size = 2;
  ProtocolOptions large;
  large.initial_response_size = 200;

  pipeline_->client->set_protocol(small);
  auto with_small = pipeline_->client->QueryTopK(term, 10);
  pipeline_->client->set_protocol(large);
  auto with_large = pipeline_->client->QueryTopK(term, 10);
  pipeline_->client->set_protocol(ProtocolOptions{});

  ASSERT_TRUE(with_small.ok() && with_large.ok());
  EXPECT_GE(with_small->trace.requests, with_large->trace.requests);
  // ...but the result set is identical (protocol only affects transfer).
  ASSERT_EQ(with_small->results.size(), with_large->results.size());
  for (size_t i = 0; i < with_small->results.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_small->results[i].score,
                     with_large->results[i].score);
  }
}

}  // namespace
}  // namespace zr::core
