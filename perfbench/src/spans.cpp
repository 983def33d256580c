#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

struct span_record {
  std::uint64_t id;
  std::uint64_t parent;
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::int64_t run;
  double value;
};

/// One thread's spans plus its stack of open span indices. Owned by the
/// registry below, so the records survive the thread.
struct thread_buffer {
  std::uint32_t thread = 0;
  std::vector<span_record> spans;
  std::vector<std::size_t> open;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_root{0};
std::atomic<std::uint64_t> g_misnested{0};

std::mutex g_registry_mutex;  // guards g_buffers and g_names.
std::deque<std::unique_ptr<thread_buffer>> g_buffers;
std::set<std::string> g_names;

thread_local thread_buffer* t_buffer = nullptr;
thread_local std::int64_t t_run = -1;

thread_buffer& local_buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_buffers.push_back(std::make_unique<thread_buffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    t_buffer->spans.reserve(1 << 12);
  }
  return *t_buffer;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void enable_tracing() { g_enabled.store(true, std::memory_order_relaxed); }

bool tracing_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

const char* intern(const std::string& name) {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  return g_names.insert(name).first->c_str();
}

void set_current_run(std::int64_t run) noexcept { t_run = run; }
std::int64_t current_run() noexcept { return t_run; }

std::uint64_t open_span(const char* name, std::int64_t run) {
  thread_buffer& buf = local_buffer();
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t parent =
      buf.open.empty() ? g_root.load(std::memory_order_relaxed)
                       : buf.spans[buf.open.back()].id;
  buf.open.push_back(buf.spans.size());
  buf.spans.push_back({id, parent, name, now_ns(), 0, run, 0.0});
  return id;
}

void close_span(std::uint64_t id, double value) {
  const std::int64_t end = now_ns();
  thread_buffer& buf = local_buffer();
  if (buf.open.empty() || buf.spans[buf.open.back()].id != id) {
    g_misnested.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  span_record& s = buf.spans[buf.open.back()];
  s.end = end;
  s.value = value;
  buf.open.pop_back();
}

std::uint64_t misnested_spans() noexcept {
  return g_misnested.load(std::memory_order_relaxed);
}

void set_root_span(std::uint64_t id) noexcept {
  g_root.store(id, std::memory_order_relaxed);
}

std::uint64_t root_span() noexcept {
  return g_root.load(std::memory_order_relaxed);
}

void write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const std::unique_ptr<thread_buffer>& buf : g_buffers) {
    for (const span_record& s : buf->spans) {
      std::fprintf(f, "%llu\t%llu\t%u\t%s\t%lld\t%lld\t%lld\t%.17g\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), buf->thread,
                   s.name, static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.run), s.value);
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
