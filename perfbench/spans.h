#pragma once
// In-memory span tracer for the benchmark's traced mode.
//
// A span is one call into a library layer made by the benchmark: its
// name ("layer.operation"), a tag (workload family or batch shape),
// start and end on the steady clock, the span that caused it, and the
// trial or cell it belongs to. Spans are appended to per-thread buffers
// (trial bodies run on pool workers) and only read after the work that
// recorded them has joined. When tracing is off a SpanScope records
// nothing, so the end-to-end runs pay one branch per scope.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  const char* tag = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t item = -1;    ///< trial or cell index; -1 = none

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Steady-clock nanoseconds since an arbitrary fixed origin.
std::int64_t now_ns();

void set_tracing(bool on);
bool tracing();

/// Pass as `parent` to inherit the innermost open span on this thread.
inline constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

/// Records one span for its lifetime (nothing when tracing is off).
class SpanScope {
 public:
  SpanScope(const char* name, const char* tag = "", std::int64_t item = -1,
            std::uint64_t parent = kInheritParent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// This span's id (0 when tracing is off), for children on other threads.
  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  std::uint64_t saved_current_ = 0;
};

/// Every span recorded since the last call, across threads, ordered by
/// start time; the buffers are emptied. Call only while no thread is
/// recording.
std::vector<Span> take_spans();

/// Write spans as JSON lines to `path`; returns false on I/O failure.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (index-aligned with `spans`).
std::vector<double> self_seconds(const std::vector<Span>& spans);

}  // namespace perfbench
