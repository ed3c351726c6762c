#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

#include "e2e.hpp"

namespace lightnas::e2e::trace {

namespace {

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Spans one thread may hold; beyond this they are counted as dropped
/// (the serve workloads sample their hot spans to stay well below).
constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 20;

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::size_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
/// Owned here, not by the threads, so spans outlive worker threads.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_mu);
    owned->tid = static_cast<std::uint32_t>(g_buffers.size() + 1);
    owned->spans.reserve(4096);
    buffer = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buffer;
}

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Spans of one thread sorted so that a parent precedes its children
/// (start ascending, longer first), with parent indices resolved by
/// containment.
struct Resolved {
  std::vector<Span> spans;
  std::vector<std::int64_t> parent;
};

Resolved resolve(const ThreadBuffer& buffer) {
  Resolved out;
  out.spans = buffer.spans;
  std::sort(out.spans.begin(), out.spans.end(),
            [](const Span& a, const Span& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  out.parent.assign(out.spans.size(), -1);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < out.spans.size(); ++i) {
    while (!open.empty() &&
           out.spans[open.back()].end_ns < out.spans[i].end_ns) {
      open.pop_back();
    }
    if (!open.empty()) {
      out.parent[i] = static_cast<std::int64_t>(open.back());
    }
    open.push_back(i);
  }
  return out;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void record(const char* name, Clock::time_point start, Clock::time_point end) {
  ThreadBuffer& buffer = local_buffer();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.spans.push_back({name, to_ns(start), to_ns(end)});
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const std::unique_ptr<ThreadBuffer>& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->dropped = 0;
  }
}

std::size_t dropped() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::size_t total = 0;
  for (const std::unique_ptr<ThreadBuffer>& buffer : g_buffers) {
    total += buffer->dropped;
  }
  return total;
}

std::map<std::string, SpanStats> fold() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, SpanStats> stats;
  for (const std::unique_ptr<ThreadBuffer>& buffer : g_buffers) {
    const Resolved r = resolve(*buffer);
    std::vector<std::int64_t> child_ns(r.spans.size(), 0);
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
      if (r.parent[i] >= 0) {
        child_ns[static_cast<std::size_t>(r.parent[i])] +=
            r.spans[i].end_ns - r.spans[i].start_ns;
      }
    }
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
      const Span& span = r.spans[i];
      const double dur =
          1e-9 * static_cast<double>(span.end_ns - span.start_ns);
      SpanStats& s = stats[span.name];
      ++s.count;
      s.total_s += dur;
      s.self_s += dur - 1e-9 * static_cast<double>(child_ns[i]);
      s.durations_s.push_back(dur);
    }
  }
  return stats;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  std::int64_t origin = INT64_MAX;
  for (const std::unique_ptr<ThreadBuffer>& buffer : g_buffers) {
    for (const Span& span : buffer->spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const std::unique_ptr<ThreadBuffer>& buffer : g_buffers) {
    const Resolved r = resolve(*buffer);
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
      const Span& span = r.spans[i];
      const char* parent =
          r.parent[i] >= 0
              ? r.spans[static_cast<std::size_t>(r.parent[i])].name
              : "";
      std::fprintf(file,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\"}}",
                   first ? "" : ",", span.name, buffer->tid,
                   1e-3 * static_cast<double>(span.start_ns - origin),
                   1e-3 * static_cast<double>(span.end_ns - span.start_ns),
                   parent);
      first = false;
    }
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace lightnas::e2e::trace
