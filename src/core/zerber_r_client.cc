#include "core/zerber_r_client.h"

#include <algorithm>
#include <unordered_map>

namespace zr::core {

Status ZerberRClient::IndexDocument(const text::Document& doc) {
  for (const auto& [term, tf] : doc.terms()) {
    (void)tf;
    double score = doc.RelevanceScore(term);
    ZR_ASSIGN_OR_RETURN(std::string term_string, vocab_->TermOf(term));
    double trs = assigner_->Assign(term, term_string, doc.id(), score);
    ZR_RETURN_IF_ERROR(UploadElement(term, doc.id(), score, doc.group(), trs));
  }
  return Status::OK();
}

StatusOr<ZerberRClient::TermQuery> ZerberRClient::BeginQuery(
    text::TermId term, size_t k) const {
  TermQuery q;
  q.term = term;
  ZR_ASSIGN_OR_RETURN(q.list, ListOf(term));

  q.initial = protocol_.initial_response_size;
  if (protocol_.adaptive_initial_size && q.list < plan_->lists.size()) {
    // Footnote-1 extension: one interleaved "stripe" of the merged list per
    // expected hit.
    q.initial = std::max<size_t>(q.initial, k * plan_->lists[q.list].size());
  }
  return q;
}

Status ZerberRClient::AbsorbResponse(TermQuery* q, size_t k,
                                     const net::QueryResponse& response,
                                     QueryTrace* trace) {
  trace->elements_fetched += response.elements.size();
  for (const zerber::EncryptedPostingElement& element : response.elements) {
    auto payload = OpenPostingElement(element, *keys_);
    if (!payload.ok()) {
      if (payload.status().IsPermissionDenied()) continue;
      return payload.status();
    }
    if (payload->term != q->term) continue;
    if (q->results.size() < k) {
      q->results.push_back(index::ScoredDoc{payload->doc, payload->score});
      ++trace->hits;
    }
  }

  if (response.exhausted) {
    q->exhausted = true;
    trace->exhausted = true;
  }
  q->offset += response.elements.size();
  ++q->request_index;
  return Status::OK();
}

bool ZerberRClient::Done(const TermQuery& q, size_t k) const {
  return q.results.size() >= k || q.exhausted ||
         q.request_index >= protocol_.max_requests;
}

Status ZerberRClient::RunRounds(std::vector<TermQuery>* queries, size_t k,
                                QueryTrace* trace) {
  std::vector<TermQuery*> open;
  for (;;) {
    open.clear();
    for (TermQuery& q : *queries) {
      if (!Done(q, k)) open.push_back(&q);
    }
    if (open.empty()) return Status::OK();
    ++trace->requests;

    if (open.size() == 1) {
      TermQuery* q = open.front();
      net::QueryRequest request;
      request.user = user_;
      request.list = q->list;
      request.offset = q->offset;
      request.count = RequestSize(q->initial, q->request_index);
      ZR_ASSIGN_OR_RETURN(net::QueryResponse response,
                          service_->Fetch(request));
      trace->bytes_fetched += response.wire_size;
      ZR_RETURN_IF_ERROR(AbsorbResponse(q, k, response, trace));
      continue;
    }

    net::MultiFetchRequest batch;
    batch.user = user_;
    batch.fetches.reserve(open.size());
    for (const TermQuery* q : open) {
      batch.fetches.push_back(net::FetchRange{
          q->list, q->offset, RequestSize(q->initial, q->request_index)});
    }
    ZR_ASSIGN_OR_RETURN(net::MultiFetchResponse round,
                        service_->MultiFetch(batch));
    if (round.responses.size() != open.size()) {
      return Status::Internal("MultiFetch answered " +
                              std::to_string(round.responses.size()) +
                              " of " + std::to_string(open.size()) +
                              " ranges");
    }
    // The round's bytes are the whole MultiFetchResponse message, envelope
    // included, not the nested per-range responses.
    trace->bytes_fetched += round.wire_size;
    for (size_t i = 0; i < open.size(); ++i) {
      ZR_RETURN_IF_ERROR(AbsorbResponse(open[i], k, round.responses[i], trace));
    }
  }
}

StatusOr<TopKResult> ZerberRClient::QueryTopK(text::TermId term, size_t k) {
  std::vector<TermQuery> queries(1);
  ZR_ASSIGN_OR_RETURN(queries[0], BeginQuery(term, k));
  TopKResult out;
  ZR_RETURN_IF_ERROR(RunRounds(&queries, k, &out.trace));

  // Elements arrive in descending TRS order; within one term that is
  // descending raw-score order (RSTF monotonicity), so results are already
  // ranked. Sort defensively for exact tie determinism.
  out.results = std::move(queries.front().results);
  std::stable_sort(out.results.begin(), out.results.end(),
                   [](const index::ScoredDoc& a, const index::ScoredDoc& b) {
                     return a.score > b.score;
                   });
  return out;
}

StatusOr<TopKResult> ZerberRClient::QueryTopKMulti(
    const std::vector<text::TermId>& terms, size_t k) {
  TopKResult out;
  std::vector<TermQuery> queries;
  queries.reserve(terms.size());
  for (text::TermId term : terms) {
    ZR_ASSIGN_OR_RETURN(TermQuery q, BeginQuery(term, k));
    queries.push_back(std::move(q));
  }
  ZR_RETURN_IF_ERROR(RunRounds(&queries, k, &out.trace));

  // Merge by summed raw scores.
  std::unordered_map<text::DocId, double> acc;
  for (const TermQuery& q : queries) {
    for (const index::ScoredDoc& d : q.results) acc[d.doc_id] += d.score;
  }

  out.results.reserve(acc.size());
  for (const auto& [doc, score] : acc) {
    out.results.push_back(index::ScoredDoc{doc, score});
  }
  std::sort(out.results.begin(), out.results.end(),
            [](const index::ScoredDoc& a, const index::ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc_id < b.doc_id;
            });
  if (out.results.size() > k) out.results.resize(k);
  return out;
}

}  // namespace zr::core
