#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::uint64_t current = 0;  ///< innermost open span on this thread
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_registry;  // guarded

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->spans.reserve(1 << 14);
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

SpanScope::SpanScope(const char* name, const char* tag, std::int64_t item,
                     std::uint64_t parent) {
  if (!tracing()) return;
  ThreadBuffer& buf = local_buffer();
  span_.name = name;
  span_.tag = tag;
  span_.item = item;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent == kInheritParent ? buf.current : parent;
  saved_current_ = buf.current;
  buf.current = span_.id;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  ThreadBuffer& buf = local_buffer();
  buf.current = saved_current_;
  buf.spans.push_back(span_);
}

std::vector<Span> take_spans() {
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& b : g_registry) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
      b->spans.clear();
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"tag\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"id\":%llu,\"parent\":%llu,\"item\":%lld}\n",
                 s.name, s.tag, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.item));
  return std::fclose(f) == 0;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Children arrive in start order (spans is sorted), so one sweep
    // merges their intervals; clip each to the parent's interval.
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = -1;
    for (std::size_t c : children[i]) {
      const std::int64_t s = std::max(spans[c].start_ns, spans[i].start_ns);
      const std::int64_t e = std::min(spans[c].end_ns, spans[i].end_ns);
      if (e <= s) continue;
      if (s > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = s;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered) *
              1e-9;
  }
  return self;
}

}  // namespace perfbench
