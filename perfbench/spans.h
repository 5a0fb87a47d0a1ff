// In-memory span recorder for the benchmark's traced mode.
//
// The traced run records one span per call into a Sinew layer (the seams
// the benchmark drives directly) under a parent span per request or commit.
// Spans stay in memory while the run measures and are written once, at the
// end, as Chrome trace-event JSON (loadable in Perfetto), in the shape
// bench/validate_trace.py checks: complete events with trace/span/parent
// ids in args.

#ifndef SINEW_PERFBENCH_SPANS_H_
#define SINEW_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 for a request (root) span
};

class SpanRecorder {
 public:
  /// Starts a root span with a fresh trace id; returns its index.
  size_t BeginRoot(const char* name);
  /// Starts a child of the span at index `parent`; returns its index.
  size_t BeginChild(size_t parent, const char* name);
  /// Ends the span at index `i`; returns its duration in nanoseconds.
  uint64_t End(size_t i);

  const std::vector<Span>& spans() const { return spans_; }

  sinew::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint64_t next_trace_ = 1;
  uint64_t next_span_ = 1;
};

}  // namespace perfbench

#endif  // SINEW_PERFBENCH_SPANS_H_
