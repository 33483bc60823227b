//===--- Trace.h - In-memory spans around calls into each layer ---------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing: a span is recorded around every public library
/// call a request makes (parse, pass pipeline, printer, bytecode compiler,
/// peephole, Device construction, staging, launches, readback, service and
/// tuner entry points). Spans nest, carry the id of the request that caused
/// them, and stay in memory until the run ends. When tracing is off a
/// Scope costs one branch.
///
/// Self time of a span is its duration minus the time its direct children
/// cover; summing self time by span name gives each layer's share of the
/// request.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_TRACE_H
#define E2EBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline uint64_t nowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name = nullptr;
  uint64_t StartNs = 0, EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
  uint32_t Request = 0;
};

/// Per-layer totals derived from the spans.
struct LayerTime {
  uint64_t Calls = 0;
  double SelfMs = 0;
};

class Tracer {
public:
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  void setRequest(uint32_t Id) { Request = Id; }

  /// RAII span: opened by the constructor, closed by the destructor.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T) {
      if (!T.Enabled)
        return;
      Index = (int32_t)T.Spans.size();
      Span S;
      S.Name = Name;
      S.Parent = T.Open;
      S.Request = T.Request;
      T.Spans.push_back(S);
      T.Open = Index;
      T.Spans[Index].StartNs = nowNs();
    }
    ~Scope() {
      if (Index < 0)
        return;
      T.Spans[Index].EndNs = nowNs();
      T.Open = T.Spans[Index].Parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Index = -1;
  };

  /// Self time and call count per span name, over the spans of requests
  /// below \p RequestLimit.
  std::map<std::string, LayerTime>
  layerTimes(uint32_t RequestLimit = UINT32_MAX) const;

  /// Writes the spans as Chrome trace-event JSON (viewable offline).
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled = false;
  uint32_t Request = 0;
  int32_t Open = -1;
  std::vector<Span> Spans;
};

} // namespace e2e

#endif // E2EBENCH_TRACE_H
