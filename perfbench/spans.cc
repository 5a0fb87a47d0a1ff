#include "spans.h"

#include <fstream>
#include <iomanip>

#include "common/metrics.h"

namespace perfbench {

size_t SpanRecorder::BeginRoot(const char* name) {
  Span s;
  s.name = name;
  s.trace_id = next_trace_++;
  s.span_id = next_span_++;
  s.start_ns = sinew::metrics::NowNanos();
  spans_.push_back(s);
  return spans_.size() - 1;
}

size_t SpanRecorder::BeginChild(size_t parent, const char* name) {
  Span s;
  s.name = name;
  s.trace_id = spans_[parent].trace_id;
  s.span_id = next_span_++;
  s.parent_id = spans_[parent].span_id;
  s.start_ns = sinew::metrics::NowNanos();
  spans_.push_back(s);
  return spans_.size() - 1;
}

uint64_t SpanRecorder::End(size_t i) {
  spans_[i].dur_ns = sinew::metrics::NowNanos() - spans_[i].start_ns;
  return spans_[i].dur_ns;
}

sinew::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return sinew::Status::IOError("cannot open trace output ", path);
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns - base) / 1e3
        << ", \"dur\": " << static_cast<double>(s.dur_ns) / 1e3
        << ", \"args\": {\"trace_id\": " << s.trace_id
        << ", \"span_id\": " << s.span_id
        << ", \"parent_span_id\": " << s.parent_id << "}}";
  }
  out << "\n]}\n";
  out.flush();
  if (!out) return sinew::Status::IOError("failed writing trace ", path);
  return sinew::Status::OK();
}

}  // namespace perfbench
