// In-memory span recorder of the traced benchmark binary.
//
// A span is one call into a layer: name, start, end, parent span, run
// id and an optional count (intervals simulated, subsets built, ...).
// Spans are appended to per-thread buffers that outlive their threads
// and are written out once, when the benchmark ends, so recording costs
// two steady_clock reads and one vector append per span. The parent of
// a span is the innermost span open on the same thread, or the
// benchmark's root span when the thread has none open (worker threads
// of the grid scheduler start with an empty stack).
//
// The untraced binary links the same file but never enables recording:
// scoped_span then costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Turns recording on (traced binary only; call before any span).
void enable_tracing();
[[nodiscard]] bool tracing_enabled() noexcept;

/// Stable storage for a dynamic span name (interned once per string).
[[nodiscard]] const char* intern(const std::string& name);

/// Run id the calling thread is working for (-1 = none / shared).
void set_current_run(std::int64_t run) noexcept;
[[nodiscard]] std::int64_t current_run() noexcept;

/// Opens a span; returns its id (0 when tracing is off).
[[nodiscard]] std::uint64_t open_span(const char* name, std::int64_t run);

/// Closes the span `id` and attaches `value`. `id` must be the
/// innermost open span of this thread; a close that is not is dropped
/// and counted by misnested_spans() (a benchmark bug, reported as a
/// failed check).
void close_span(std::uint64_t id, double value = 0.0);
[[nodiscard]] std::uint64_t misnested_spans() noexcept;

/// Marks `id` as the parent of spans opened on threads with no open
/// span (0 clears).
void set_root_span(std::uint64_t id) noexcept;
[[nodiscard]] std::uint64_t root_span() noexcept;

/// Writes every recorded span as tab-separated lines:
/// id, parent, thread, name, start_ns, end_ns, run, value.
void write_spans(const std::string& path);

class scoped_span {
 public:
  explicit scoped_span(const char* name, std::int64_t run = current_run())
      : id_(tracing_enabled() ? open_span(name, run) : 0) {}
  ~scoped_span() { close(); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  void set_value(double value) noexcept { value_ = value; }

  /// Ends the span before the scope does (idempotent).
  void close() {
    if (id_ != 0) close_span(id_, value_);
    id_ = 0;
  }

 private:
  std::uint64_t id_;
  double value_ = 0.0;
};

}  // namespace perfbench
