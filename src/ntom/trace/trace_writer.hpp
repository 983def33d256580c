// trace_writer: capture the measurement stream to a .trc file.
//
// The writer is just another measurement_sink, so capture composes with
// fanout_sink — one live pass can fit estimators, feed the
// materialized store, AND record the dataset. Each consumed chunk
// becomes one v2 frame (plane sections with per-plane codec
// negotiation — trace/codec.hpp); the reader re-chunks to any
// granularity on replay, so the capture chunk size never matters
// downstream (except for masked captures, which replay at capture
// granularity — the mask is per chunk). Frame offsets are accumulated
// into the CIDX index that end() appends before the trailer.
//
// By default frames are written by a dedicated background thread:
// consume() only packs the frame into an in-memory buffer and hands it
// to a bounded queue, so the live simulation pass never blocks on CRC
// or file I/O. Producer back-pressure kicks in when the queue is full
// (bounded memory: at most queue_frames packed frames plus the one
// being packed). Writer-side I/O errors are latched and rethrown from
// the next consume()/end() on the capture thread. Sync mode
// (async=false) keeps everything on the caller's thread; both modes
// produce byte-identical files.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ntom/sim/measurement.hpp"
#include "ntom/trace/trace_format.hpp"

namespace ntom {

struct trace_writer_options {
  /// Persist the ground-truth link plane. Disable to publish a dataset
  /// without revealing truth (replays then score observation-only).
  bool store_truth = true;

  /// Persist the per-chunk observed-path mask plane (trace_flag_has_mask)
  /// so probe-budget (masked) streams capture and replay bit-identically.
  /// Without it, consuming a partially-observed chunk throws — a capture
  /// must never silently drop the mask. Fully-observed chunks store an
  /// all-ones mask row (which the RLE codec reduces to a few bytes).
  bool store_mask = false;

  /// Per-plane codec negotiation (trace/codec.hpp): store each plane
  /// under whichever codec is smallest. Disable to force every plane
  /// raw — larger files, but every frame becomes eligible for the
  /// reader's mmap zero-copy path.
  bool compress = true;

  /// Write frames from a background thread (double-buffered hand-off)
  /// so consume() returns without touching the file. Disable to keep
  /// all I/O on the calling thread — errors then surface from the
  /// consume() that observed them (async latches writer-side errors
  /// and rethrows on a later consume()/end()).
  bool async = true;

  /// Frames the async queue may hold before consume() blocks
  /// (back-pressure). Bounds capture memory to queue_frames packed
  /// frames; deeper queues amortize producer/writer context switches —
  /// on a single-CPU host each hand-off batch costs a switch pair.
  std::size_t queue_frames = 16;

  /// Free-form origin string embedded in the header (capture config,
  /// import source) — surfaced by trace_reader::provenance().
  std::string provenance;
};

class trace_writer final : public measurement_sink {
 public:
  /// Opens `path` for writing (truncates); throws trace_error when the
  /// file cannot be created. The header is written by begin().
  explicit trace_writer(std::string path, trace_writer_options options = {});

  trace_writer(const trace_writer&) = delete;
  trace_writer& operator=(const trace_writer&) = delete;

  /// Joins the background writer (discarding any latched error — call
  /// end() to observe failures).
  ~trace_writer() override;

  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override;

  /// Drains the frame queue, writes the trailer, and flushes; throws
  /// trace_error on any I/O failure, including errors latched by the
  /// background writer. The file is complete (and readable) only after
  /// end() returns.
  void end() override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Bytes written so far (header + frames + trailer). Exact after
  /// end(); a racy lower bound while an async capture is in flight.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  /// Intervals recorded so far — the dataset's T after end(). Differs
  /// from the run's simulated T when imperfection decorators sit
  /// upstream of the writer.
  [[nodiscard]] std::uint64_t intervals_written() const noexcept {
    return intervals_written_;
  }

 private:
  /// One CIDX entry, accumulated per frame on the producer side (the
  /// file offset is computed from cumulative packed sizes, so the async
  /// writer's timing never affects it).
  struct index_entry {
    std::uint64_t offset;
    std::uint64_t first_interval;
    std::uint64_t count;
  };

  void write_raw(const void* data, std::size_t len);

  /// Appends one plane section (u8 codec id, u32 encoded length,
  /// payload) to the frame under construction, negotiating the codec
  /// when options_.compress is set.
  void append_plane_section(std::vector<unsigned char>& frame,
                            const bit_matrix& plane);

  /// CRCs and writes one packed frame (magic + head + plane sections),
  /// then verifies the stream state. Runs on the caller's thread in
  /// sync mode and on the writer thread in async mode.
  void write_frame(const std::vector<unsigned char>& frame);

  void writer_loop();
  void shutdown_writer() noexcept;
  [[noreturn]] void throw_latched();

  std::string path_;
  trace_writer_options options_;
  /// C stdio stream: fwrite through a 256 KiB setvbuf buffer is about
  /// half the per-call cost of std::ofstream::write (no sentry, no
  /// virtual dispatch) — measurable at one fwrite pair per frame.
  std::FILE* out_ = nullptr;
  std::uint64_t intervals_declared_ = 0;
  std::uint64_t intervals_written_ = 0;
  std::uint64_t frames_written_ = 0;
  std::size_t paths_ = 0;
  std::size_t links_ = 0;
  /// File offset of the NEXT frame (header bytes + cumulative packed
  /// frame sizes) — the producer-side cursor behind the CIDX entries.
  std::uint64_t frame_offset_ = 0;
  std::vector<index_entry> index_;
  /// Reusable 1 x paths mask-plane row (all-ones for fully-observed
  /// chunks).
  bit_matrix mask_row_;
  std::atomic<std::uint64_t> bytes_written_{0};
  bool begun_ = false;
  bool finished_ = false;

  /// Explicit stream buffer (256 KiB): fewer write syscalls than the
  /// default stdio buffer, and begin()'s header stays buffered so
  /// device errors surface at frame granularity, not inside begin().
  std::vector<char> stream_buffer_;

  // Background writer state. `queue_` holds packed frames awaiting
  // I/O (capacity options_.queue_frames); `spare_` recycles their
  // buffers back to the producer so steady-state capture allocates
  // nothing.
  std::thread writer_;
  std::mutex mutex_;
  std::condition_variable space_cv_;  // producer waits for a free slot
  std::condition_variable work_cv_;   // writer waits for a frame / stop
  std::deque<std::vector<unsigned char>> queue_;
  std::vector<std::vector<unsigned char>> spare_;
  std::vector<unsigned char> packing_;  // frame under construction
  bool stop_ = false;
  bool failed_ = false;
  std::string error_;
};

}  // namespace ntom
