#include "tracing.h"

#include <utility>

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};

/// One buffer per recording thread, owned by the registry so it outlives
/// threads that end before the drain (server event loops).
struct ThreadBuffer {
  zr::Mutex mu;
  std::vector<Span> spans ZR_GUARDED_BY(mu);
};

zr::Mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    zr::MutexLock lock(g_buffers_mu);
    Buffers().push_back(std::make_unique<ThreadBuffer>());
    return Buffers().back().get();
  }();
  return buffer;
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<Span> DrainSpans() {
  std::vector<Span> out;
  zr::MutexLock lock(g_buffers_mu);
  for (auto& buffer : Buffers()) {
    zr::MutexLock buffer_lock(buffer->mu);
    for (Span& s : buffer->spans) out.push_back(std::move(s));
    buffer->spans.clear();
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name) : active_(Tracing()) {
  if (!active_) return;
  zr::obs::TraceContext parent = zr::obs::CurrentTrace();
  span_.name = name;
  span_.span_id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.trace_id = parent.active() ? parent.trace_id : span_.span_id;
  span_.parent_id = parent.active() ? parent.span_id : 0;
  scope_.emplace(zr::obs::TraceContext{span_.trace_id, span_.span_id});
  span_.start_ns = zr::obs::MonotonicNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = zr::obs::MonotonicNowNs();
  scope_.reset();
  ThreadBuffer* buffer = LocalBuffer();
  zr::MutexLock lock(buffer->mu);
  buffer->spans.push_back(std::move(span_));
}

TimedBackend::TimedBackend(zr::net::ZerberService* inner, std::string layer)
    : inner_(inner),
      insert_(layer + ".insert"),
      fetch_(layer + ".fetch"),
      multifetch_(layer + ".multifetch"),
      delete_(layer + ".delete") {}

zr::StatusOr<zr::net::InsertResponse> TimedBackend::Insert(
    const zr::net::InsertRequest& request) {
  ScopedSpan span(insert_.c_str());
  return inner_->Insert(request);
}

zr::StatusOr<zr::net::QueryResponse> TimedBackend::Fetch(
    const zr::net::QueryRequest& request) {
  ScopedSpan span(fetch_.c_str());
  return inner_->Fetch(request);
}

zr::StatusOr<zr::net::MultiFetchResponse> TimedBackend::MultiFetch(
    const zr::net::MultiFetchRequest& request) {
  ScopedSpan span(multifetch_.c_str());
  return inner_->MultiFetch(request);
}

zr::StatusOr<zr::net::DeleteResponse> TimedBackend::Delete(
    const zr::net::DeleteRequest& request) {
  ScopedSpan span(delete_.c_str());
  return inner_->Delete(request);
}

TimedExchange::TimedExchange(zr::net::ZerberService* transport)
    : transport_(transport) {}

void TimedExchange::Capture(const zr::net::QueryResponse& response) {
  if (!capture_) return;
  captured_.insert(captured_.end(), response.elements.begin(),
                   response.elements.end());
}

zr::StatusOr<zr::net::InsertResponse> TimedExchange::Insert(
    const zr::net::InsertRequest& request) {
  ScopedSpan span("net.insert");
  return transport_->Insert(request);
}

zr::StatusOr<zr::net::QueryResponse> TimedExchange::Fetch(
    const zr::net::QueryRequest& request) {
  auto response = [&] {
    ScopedSpan span("net.fetch");
    return transport_->Fetch(request);
  }();
  if (response.ok()) Capture(*response);
  return response;
}

zr::StatusOr<zr::net::MultiFetchResponse> TimedExchange::MultiFetch(
    const zr::net::MultiFetchRequest& request) {
  auto response = [&] {
    ScopedSpan span("net.multifetch");
    return transport_->MultiFetch(request);
  }();
  if (response.ok()) {
    for (const auto& r : response->responses) Capture(r);
  }
  return response;
}

zr::StatusOr<zr::net::DeleteResponse> TimedExchange::Delete(
    const zr::net::DeleteRequest& request) {
  ScopedSpan span("net.delete");
  return transport_->Delete(request);
}

}  // namespace perfbench
