// In-memory spans recorded from the benchmark's own files, around each call
// into a layer, plus the two ZerberService decorators that place them: one
// on the client seam (wrapping the client's transport) and one in front of
// the backend (what the transport, TcpServer or client calls into).
//
// A span's parent is the obs::TraceContext current when it opens, and the
// span installs itself as the current context for what it calls. That
// context crosses threads and sockets the way the program already carries
// it (TCP frame extension, router fan-out threads), so a backend span on a
// server loop thread finds the client exchange that caused it.

#ifndef ZR_PERFBENCH_TRACING_H_
#define ZR_PERFBENCH_TRACING_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "measure.h"
#include "net/service.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "zerber/posting_element.h"

namespace perfbench {

/// Spans are recorded only while this is set (the traced window).
void SetTracing(bool on);
bool Tracing();

/// Every span recorded so far, from all threads; clears the buffers.
std::vector<Span> DrainSpans();

/// RAII span: opens under the current trace context (a new trace when there
/// is none) and records on destruction. Inert while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  Span span_;
  std::optional<zr::obs::ScopedTrace> scope_;
};

/// Backend-side decorator: one span per call, named "<layer>.<method>".
class TimedBackend final : public zr::net::ZerberService {
 public:
  TimedBackend(zr::net::ZerberService* inner, std::string layer);

  zr::StatusOr<zr::net::InsertResponse> Insert(
      const zr::net::InsertRequest& request) override;
  zr::StatusOr<zr::net::QueryResponse> Fetch(
      const zr::net::QueryRequest& request) override;
  zr::StatusOr<zr::net::MultiFetchResponse> MultiFetch(
      const zr::net::MultiFetchRequest& request) override;
  zr::StatusOr<zr::net::DeleteResponse> Delete(
      const zr::net::DeleteRequest& request) override;

 private:
  zr::net::ZerberService* inner_;
  std::string insert_, fetch_, multifetch_, delete_;
};

/// Client-seam decorator: one "net.<method>" span per exchange. While
/// capturing, it also keeps a copy of every element fetched, so the run can
/// time opening exactly the elements a query fetched. Single-threaded, like
/// the transport it wraps.
class TimedExchange final : public zr::net::ZerberService {
 public:
  explicit TimedExchange(zr::net::ZerberService* transport);

  zr::StatusOr<zr::net::InsertResponse> Insert(
      const zr::net::InsertRequest& request) override;
  zr::StatusOr<zr::net::QueryResponse> Fetch(
      const zr::net::QueryRequest& request) override;
  zr::StatusOr<zr::net::MultiFetchResponse> MultiFetch(
      const zr::net::MultiFetchRequest& request) override;
  zr::StatusOr<zr::net::DeleteResponse> Delete(
      const zr::net::DeleteRequest& request) override;

  void set_capture(bool on) { capture_ = on; }

  /// The elements captured so far; clears them.
  std::vector<zr::zerber::EncryptedPostingElement> TakeCaptured() {
    std::vector<zr::zerber::EncryptedPostingElement> out;
    out.swap(captured_);
    return out;
  }

 private:
  void Capture(const zr::net::QueryResponse& response);

  zr::net::ZerberService* transport_;
  bool capture_ = false;
  std::vector<zr::zerber::EncryptedPostingElement> captured_;
};

}  // namespace perfbench

#endif  // ZR_PERFBENCH_TRACING_H_
