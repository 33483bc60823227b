//===--- Trace.cpp --------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace e2e;

std::map<std::string, LayerTime>
Tracer::layerTimes(uint32_t RequestLimit) const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, LayerTime> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Request >= RequestLimit)
      continue;
    uint64_t Dur = S.EndNs - S.StartNs;
    uint64_t Self = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
    LayerTime &L = Out[S.Name];
    ++L.Calls;
    L.SelfMs += (double)Self / 1e6;
  }
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,"
                 "\"parent\":%d}}",
                 I ? ",\n" : "", S.Name, (double)(S.StartNs - Base) / 1e3,
                 (double)(S.EndNs - S.StartNs) / 1e3, S.Request, S.Parent);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
