// ntom benchmark runner: runs one workload for a time budget (or a fixed
// amount of work) and writes its raw observations as one JSON record.
// perfbench/run.py turns the record into the benchmark's metrics.
//
//   ntom_bench --workload=boolean|probability|service --seed=N
//              --seconds=S [--rounds=R | --chunks=C] --threads=K
//              --out=record.json [--spans=spans.tsv] [--work-dir=DIR]
//
// boolean      the Fig. 3 grid through the ntom::experiment facade
// probability  the Fig. 4 grid through the facade
// service      a captured hotspot_drift stream replayed from a .trc file
//              into a windowed tomography_service, with one closed-loop
//              producer and one open-loop snapshot reader
//
// The record holds per-run accuracy rows, per-run and per-operation
// timings, counters, the set-up times and the outcome of every output
// check. The traced build (ntom_bench_traced) also writes the layer
// spans to --spans when it exits.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ntom/api/estimator.hpp"
#include "ntom/api/experiment.hpp"
#include "ntom/exp/batch.hpp"
#include "ntom/exp/grid.hpp"
#include "ntom/service/service.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/topogen/registry.hpp"
#include "ntom/trace/trace_reader.hpp"
#include "ntom/trace/trace_writer.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/simd/simd.hpp"
#include "record.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace ntom;
using perfbench::now_ns;
using perfbench::record;
using perfbench::scoped_span;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Set-ups per run; setup_s is their median.
constexpr std::size_t setups_per_run = 9;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t rounds = 0;  ///< batch: fixed round count instead of seconds.
  std::size_t chunks = 0;  ///< service: fixed chunk count instead.
  std::size_t threads = 1;
  std::string out;
  std::string spans;
  std::string work_dir = ".";
};

/// Counts checked outcomes; a failure is recorded with its reason.
struct checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

/// Runs fn(0), ..., fn(n - 1) on `threads` workers, each taking the next
/// index, and rethrows the first worker exception. Spans the workers open
/// nest under `parent`. Set-up work spreads over every worker so that one
/// contended CPU does not set the set-up time.
template <class Fn>
void parallel_for(std::size_t n, std::size_t threads, std::uint64_t parent,
                  const Fn& fn) {
  const std::uint64_t outer = perfbench::root_span();
  perfbench::set_root_span(parent);
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (std::size_t i = next++; i < n; i = next++) fn(i);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  perfbench::set_root_span(outer);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ------------------------------------------------------------ batch grids

/// Workload shape of the two batch grids (see perfbench/workloads.json).
struct batch_shape {
  std::size_t intervals = 0;
  const char* brite = "brite";
  std::size_t brite_draws = 0;
  const char* sparse = "sparse";
  std::size_t sparse_draws = 0;
};

constexpr batch_shape boolean_shape{150, "brite", 8, "sparse", 2};
constexpr batch_shape probability_shape{150, "brite", 8,
                                        "sparse,stubs=100,paths=150", 4};

/// Runs a timed phase completes at least, whatever its time budget: the
/// run-latency p90 needs 100 samples (10 beyond it).
constexpr std::size_t batch_min_runs = 100;

/// Pinned cases. Algorithm 1's cost varies by orders of magnitude across
/// topology draws and congestion draws alike, so the batch workloads run
/// a fixed suite of (topology draw, scenario draw) cases and the seed
/// varies only the packet simulation. "pinned,of='<spec>',seed=N" is
/// the registered topology or scenario <spec> drawn with seed N,
/// whatever seed the engine derives for the run.
void register_pinned() {
  const std::vector<option_doc> options = {
      {"of", "the pinned topology or scenario spec"},
      {"seed", "the pinned draw's seed"}};
  topogen::topology_registry().add({
      "pinned", "Pinned", "a topology spec drawn with a fixed seed", {},
      options,
      [](const spec& s, std::uint64_t) {
        return make_topology(topology_spec(s.get_string("of")),
                             static_cast<std::uint64_t>(s.get_int("seed", 0)));
      }});
  scenario_plugin plugin;
  plugin.configure = [](scenario_params params, const spec& s) {
    params = apply_scenario_spec(scenario_spec(s.get_string("of")), params);
    params.seed = static_cast<std::uint64_t>(s.get_int("seed", 0));
    return params;
  };
  plugin.build = [](const topology& t, const scenario_params& params,
                    const spec& s) {
    const scenario_spec of(s.get_string("of"));
    return scenario_registry().resolve(of).factory.build(t, params, of);
  };
  scenario_registry().add({"pinned", "Pinned",
                           "a scenario spec drawn with a fixed seed", {},
                           options, plugin});
}

topology_spec pinned_topology(const topology_spec& of, std::uint64_t salt,
                              std::size_t draw) {
  return topology_spec("pinned")
      .with_option("of", of.to_string())
      .with_option("seed", std::to_string(mix_seed(salt, draw) >> 1))
      .with_option("label", topology_label(of) + "#" + std::to_string(draw));
}

scenario_spec pinned_scenario(const scenario_spec& of, std::uint64_t salt) {
  return scenario_spec("pinned")
      .with_option("of", of.to_string())
      .with_option("seed", std::to_string(mix_seed(salt, 0) >> 1))
      .with_option("label", scenario_label(of));
}

/// The pinned topology draws of a batch workload.
std::vector<topology_spec> brite_draws(const batch_shape& shape) {
  std::vector<topology_spec> out;
  for (std::size_t k = 0; k < shape.brite_draws; ++k) {
    out.push_back(pinned_topology(shape.brite, 0xb17e, k));
  }
  return out;
}
std::vector<topology_spec> sparse_draws(const batch_shape& shape) {
  std::vector<topology_spec> out;
  for (std::size_t k = 0; k < shape.sparse_draws; ++k) {
    out.push_back(pinned_topology(shape.sparse, 0x5ba5, k));
  }
  return out;
}

/// The facade grids one round of a batch workload runs, in order. The
/// Fig. 3 grid is not a full topology x scenario product (the sparse
/// topology only runs random congestion), so it is two facade grids.
std::vector<experiment> make_grids(const std::string& workload,
                                   const batch_shape& shape) {
  const auto with_topologies = [](experiment& e,
                                  const std::vector<topology_spec>& specs) {
    for (const topology_spec& s : specs) e.with_topology(s);
  };
  const auto with_scenarios = [](experiment& e,
                                 const std::vector<scenario_spec>& specs) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      e.with_scenario(pinned_scenario(specs[i], 0x5ce + i));
    }
  };

  std::vector<experiment> grids;
  if (workload == "boolean") {
    experiment dense;
    with_topologies(dense, brite_draws(shape));
    with_scenarios(dense, {"random_congestion", "concentrated_congestion",
                           "no_independence", "no_stationarity"});
    dense.with_estimators({"sparsity", "bayes-indep", "bayes-corr"})
        .intervals(shape.intervals);
    experiment tree;
    with_topologies(tree, sparse_draws(shape));
    with_scenarios(tree, {"random_congestion"});
    tree.with_estimators({"sparsity", "bayes-indep", "bayes-corr"})
        .intervals(shape.intervals);
    grids.push_back(std::move(dense));
    grids.push_back(std::move(tree));
  } else {
    experiment fig4;
    with_topologies(fig4, brite_draws(shape));
    with_topologies(fig4, sparse_draws(shape));
    std::vector<scenario_spec> scenarios;
    for (const char* s :
         {"random_congestion", "concentrated_congestion", "no_independence"}) {
      scenarios.push_back(scenario_spec(s).with_option("nonstationary", "true"));
    }
    with_scenarios(fig4, scenarios);
    fig4.with_estimators({"independence", "corr-heuristic", "corr-complete"})
        .measure_boolean(false)
        .measure_link_error(true)
        .intervals(shape.intervals);
    grids.push_back(std::move(fig4));
  }
  return grids;
}

/// Metrics each run of a grid must report, per estimator series.
std::vector<std::string> expected_metrics(const std::string& workload,
                                          const std::string& series) {
  if (workload == "probability") return {"mean_abs_error"};
  if (series == "Sparsity") return {"detection_rate", "false_positive_rate"};
  return {"detection_rate", "false_positive_rate", "mean_abs_error"};
}

void check_run(const std::string& workload, const run_result& run,
               checks& out) {
  const std::vector<std::string> series =
      workload == "boolean"
          ? std::vector<std::string>{"Sparsity", "Bayes-Indep", "Bayes-Corr"}
          : std::vector<std::string>{"Independence", "Corr-heuristic",
                                     "Corr-complete"};
  bool ok = true;
  for (const std::string& s : series) {
    for (const std::string& metric : expected_metrics(workload, s)) {
      std::size_t found = 0;
      for (const measurement& m : run.measurements) {
        if (m.series != s || m.metric != metric) continue;
        ++found;
        ok = ok && std::isfinite(m.value) && m.value >= 0.0 && m.value <= 1.0;
      }
      ok = ok && found == 1;
    }
  }
  out.expect(ok, "run " + run.label + " #" + std::to_string(run.index) +
                     ": missing or out-of-range accuracy rows");
}

/// One batch set-up: builds the round's facade grids and draws every
/// pinned topology of the suite once on the workers, checking that each
/// draw routes paths over links. The seed plays no part: the draws are
/// pinned. (The timed rounds draw them again through the facade's
/// per-grid cache.)
std::vector<experiment> batch_setup(const options& opt,
                                    const batch_shape& shape, checks& chk) {
  const scoped_span span("bench.setup");
  std::vector<experiment> grids = make_grids(opt.workload, shape);
  std::vector<topology_spec> draws = brite_draws(shape);
  for (const topology_spec& s : sparse_draws(shape)) draws.push_back(s);
  std::vector<char> routed(draws.size(), 0);
  parallel_for(draws.size(), opt.threads, span.id(), [&](std::size_t i) {
    const topology t = make_topology(draws[i], 0);
    routed[i] = t.num_links() > 0 && t.num_paths() > 0 ? 1 : 0;
  });
  for (std::size_t i = 0; i < draws.size(); ++i) {
    chk.expect(routed[i] != 0,
               "pinned draw " + draws[i].to_string() + " has no paths");
  }
  return grids;
}

void run_batch(const options& opt, record& rec, checks& chk) {
  const batch_shape& shape =
      opt.workload == "boolean" ? boolean_shape : probability_shape;
  std::vector<double> setups;
  std::vector<experiment> grids;
  for (std::size_t i = 0; i < setups_per_run; ++i) {
    const std::int64_t t0 = now_ns();
    grids = batch_setup(opt, shape, chk);
    setups.push_back(seconds_between(t0, now_ns()));
  }
  rec.numbers("setup_s", setups);
  rec.number("intervals_per_run", static_cast<double>(shape.intervals));

  std::vector<double> run_seconds;
  std::vector<double> round_seconds;
  std::vector<double> grid_stat_rows;  // cells, steals, hits, misses.
  std::size_t runs = 0;
  record::rows accuracy;

  const std::int64_t start = now_ns();
  perfbench::scoped_span root("bench.timed");
  perfbench::set_root_span(root.id());
  for (std::size_t round = 0;; ++round) {
    // A round is several seconds long, so the phase ends at the round
    // boundary nearest the budget rather than the first one past it.
    const double elapsed = seconds_between(start, now_ns());
    const double half_round =
        round > 0 ? 0.5 * elapsed / static_cast<double>(round) : 0.0;
    const bool done = opt.rounds > 0
                          ? round >= opt.rounds
                          : runs >= batch_min_runs &&
                                elapsed + half_round >= opt.seconds;
    if (done) break;
    const std::int64_t r0 = now_ns();
    for (std::size_t g = 0; g < grids.size(); ++g) {
      batch_params params;
      params.threads = opt.threads;
      params.base_seed = mix_seed(opt.seed, round * 16 + g);
      grid_stats stats;
      const batch_report report = grids[g].run(params, &stats);
      grid_stat_rows.insert(grid_stat_rows.end(),
                            {static_cast<double>(stats.cells),
                             static_cast<double>(stats.steals),
                             static_cast<double>(stats.topo_cache_hits),
                             static_cast<double>(stats.topo_cache_misses)});
      for (const run_result& run : report.runs()) {
        run_seconds.push_back(run.seconds);
        check_run(opt.workload, run, chk);
        for (const measurement& m : run.measurements) {
          accuracy.push_back({std::to_string(round) + "/" + run.label,
                              m.series, m.metric, m.value});
        }
        ++runs;
      }
    }
    round_seconds.push_back(seconds_between(r0, now_ns()));
  }
  root.close();
  perfbench::set_root_span(0);
  const double timed = seconds_between(start, now_ns());
  rec.number("timed_s", timed);
  rec.number("runs", static_cast<double>(runs));
  rec.numbers("run_seconds", run_seconds);
  rec.numbers("round_seconds", round_seconds);
  rec.numbers("grid_stats", grid_stat_rows);
  rec.accuracy(accuracy);
}

// ---------------------------------------------------------------- service

/// Service workload shape (see perfbench/workloads.json).
constexpr const char* service_topology = "brite,n=12,hosts=36,paths=72";
constexpr std::uint64_t service_topology_seed = 3;
constexpr std::uint64_t service_scenario_salt = 0x407;
constexpr std::size_t service_chunk = 64;
constexpr std::size_t service_segments = 16;
constexpr std::size_t service_segment_chunks = 16;
/// micro_service's default window.
constexpr std::size_t service_window = 8;
/// An assumed rate (no monitor traffic has been recorded): well above
/// the ~250 refits/s of this shape, so the reader polls several times
/// per published version and refits_read_share measures the service,
/// not the poll rate; a 30 s run makes 30 000 reads, enough for a
/// steady read p99.
constexpr double service_read_hz = 1000.0;
/// Chunks a timed phase ingests at least: the ingest p99 needs 1000.
constexpr std::size_t service_min_chunks = 1000;

/// Collects the simulated chunks of one segment, numbering its intervals
/// after the previous segments'.
class chunk_collector final : public measurement_sink {
 public:
  explicit chunk_collector(std::size_t offset) : offset_(offset) {}
  void consume(const measurement_chunk& chunk) override {
    chunks.push_back(chunk);
    chunks.back().first_interval += offset_;
  }
  std::vector<measurement_chunk> chunks;

 private:
  std::size_t offset_;
};

/// Compares a replay against the simulated chunks, chunk for chunk.
class replay_comparator final : public measurement_sink {
 public:
  explicit replay_comparator(const std::vector<measurement_chunk>& expected)
      : expected_(&expected) {}
  void consume(const measurement_chunk& chunk) override {
    if (next_ >= expected_->size()) {
      equal_ = false;
      return;
    }
    const measurement_chunk& want = (*expected_)[next_++];
    equal_ = equal_ && chunk.first_interval == want.first_interval &&
             chunk.count == want.count &&
             chunk.congested_paths == want.congested_paths &&
             chunk.true_links == want.true_links;
  }
  [[nodiscard]] bool equal() const {
    return equal_ && next_ == expected_->size();
  }

 private:
  const std::vector<measurement_chunk>* expected_;
  std::size_t next_ = 0;
  bool equal_ = true;
};

struct service_input {
  std::vector<measurement_chunk> chunks;  ///< the simulated stream.
  std::unique_ptr<trace_reader> reader;
  std::uint64_t file_bytes = 0;
  bool replay_equal = false;
};

service_input service_setup(const options& opt, const std::string& path) {
  const scoped_span span("bench.setup");
  service_input in;
  // The refit cost is a function of the topology, so the draw is pinned;
  // the seed drives the hot-spot walk and the simulation.
  const auto topo = std::make_shared<const topology>(
      make_topology(service_topology, service_topology_seed));
  // Segments run their own pinned draw of congestable links and hot-spot
  // walk, so one stream spans several scenario draws; the seed drives the
  // simulation of each. The workers simulate the segments.
  const scenario_spec scenario = "hotspot_drift";
  const std::size_t segment_intervals = service_chunk * service_segment_chunks;
  std::vector<chunk_collector> segments;
  for (std::size_t k = 0; k < service_segments; ++k) {
    segments.emplace_back(k * segment_intervals);
  }
  parallel_for(service_segments, opt.threads, span.id(), [&](std::size_t k) {
    scenario_params params;
    params.seed = mix_seed(service_scenario_salt, k);
    params = apply_scenario_spec(scenario, params);
    const congestion_model model = make_scenario(*topo, scenario, params);
    sim_params sim;
    sim.intervals = segment_intervals;
    sim.seed = mix_seed(opt.seed, k);
    scoped_span stream("sim.stream");
    stream.set_value(static_cast<double>(sim.intervals));
    run_experiment_streaming(*topo, model, sim, segments[k], service_chunk);
  });
  for (chunk_collector& segment : segments) {
    for (measurement_chunk& chunk : segment.chunks) {
      in.chunks.push_back(std::move(chunk));
    }
  }
  const std::size_t stream_intervals = service_segments * segment_intervals;

  trace_writer_options wopts;
  wopts.provenance = "perfbench service seed=" + std::to_string(opt.seed);
  {
    const scoped_span write("trace.write");
    trace_writer writer(path, wopts);
    writer.begin(*topo, stream_intervals);
    for (const measurement_chunk& chunk : in.chunks) writer.consume(chunk);
    writer.end();
    in.file_bytes = writer.bytes_written();
  }

  in.reader = std::make_unique<trace_reader>(path);
  replay_comparator compare(in.chunks);
  {
    const scoped_span replay("trace.verify");
    in.reader->stream(compare, service_chunk);
  }
  in.replay_equal = compare.equal();
  return in;
}

/// One read of the open-loop reader.
struct read_sample {
  std::int64_t due = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t version = 0;
  std::int64_t lag_intervals = 0;
  bool torn = false;
};

/// Thrown from the replay callback to stop the producer at the deadline.
struct stop_replay {};

/// Mean |estimate - window frequency| over the snapshot's estimated
/// links, against the truth plane of the window's chunks (the stream
/// repeats every chunks.size() chunks).
double snapshot_mae(const service_snapshot& snap,
                    const std::vector<measurement_chunk>& chunks) {
  const std::size_t last_chunk = snap.end_interval() / service_chunk - 1;
  const std::size_t links = snap.topo().num_links();
  std::vector<double> congested(links, 0.0);
  std::size_t intervals = 0;
  const std::size_t n = chunks.size();
  for (std::size_t k = 0; k < snap.window_chunks(); ++k) {
    const measurement_chunk& c = chunks[(last_chunk + n - k) % n];
    for (std::size_t i = 0; i < c.count; ++i) {
      const bitvec row = c.true_links_at(i);
      for (link_id e = 0; e < links; ++e) {
        if (row.test(e)) congested[e] += 1.0;
      }
    }
    intervals += c.count;
  }
  double sum = 0.0;
  std::size_t estimated = 0;
  for (link_id e = 0; e < links; ++e) {
    const snapshot_link& l = snap.link_estimate(e);
    if (!l.estimated) continue;
    sum += std::fabs(l.congestion - congested[e] / static_cast<double>(intervals));
    ++estimated;
  }
  return estimated == 0 ? 0.0 : sum / static_cast<double>(estimated);
}

void run_service(const options& opt, record& rec, checks& chk) {
  const std::string path = (std::filesystem::path(opt.work_dir) /
                            ("service-" + std::to_string(opt.seed) + ".trc"))
                               .string();
  std::vector<double> setups;
  service_input in;
  for (std::size_t i = 0; i < setups_per_run; ++i) {
    in = service_input{};  // unmap the previous replay before rewriting.
    const std::int64_t t0 = now_ns();
    in = service_setup(opt, path);
    setups.push_back(seconds_between(t0, now_ns()));
  }
  rec.numbers("setup_s", setups);
  rec.number("trace_bytes", static_cast<double>(in.file_bytes));
  rec.number("trace_intervals", static_cast<double>(in.reader->intervals()));
  chk.expect(in.replay_equal, "replayed .trc stream differs from simulation");

  service_config cfg;
  cfg.estimator = "independence";
  cfg.window_chunks = service_window;
  tomography_service service(cfg);
  service.begin_epoch(in.reader->topology_ptr());

  const std::size_t stream_chunks = in.chunks.size();
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> handed_end{0};  // intervals handed to ingest.
  std::vector<read_sample> reads;
  reads.reserve(static_cast<std::size_t>(opt.seconds * service_read_hz * 2) +
                1024);

  const std::int64_t start = now_ns();
  perfbench::scoped_span root("bench.timed");
  perfbench::set_root_span(root.id());

  // Open-loop reader: read k is due at start + k / rate and is timed from
  // that due time, so a stall delays (and is charged to) later reads.
  std::thread reader([&] {
    const auto period = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 / service_read_hz));
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t k = 0; !done.load(std::memory_order_acquire); ++k) {
      const auto due = t0 + k * period;
      std::this_thread::sleep_until(due);
      read_sample s;
      s.due = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  due.time_since_epoch())
                  .count();
      s.start = now_ns();
      {
        const scoped_span span("service.read", -1);
        const std::shared_ptr<const service_snapshot> snap = service.snapshot();
        s.torn = !snap->verify();
        (void)snap->congested_links(0.5);
        s.version = snap->version();
        s.lag_intervals = handed_end.load(std::memory_order_acquire) -
                          static_cast<std::int64_t>(snap->end_interval());
      }
      s.end = now_ns();
      reads.push_back(s);
    }
  });
  // Stops and joins the reader on every exit path, exceptions included.
  struct reader_guard {
    std::atomic<bool>* done;
    std::thread* thread;
    ~reader_guard() {
      done->store(true, std::memory_order_release);
      if (thread->joinable()) thread->join();
    }
  } guard{&done, &reader};

  // Closed-loop producer: replays the file, handing the next chunk to
  // ingest as soon as the previous ingest returns; passes after the
  // first continue the interval numbering.
  std::vector<double> ingest_us;
  std::vector<double> fresh_ms;
  std::deque<std::pair<std::size_t, std::int64_t>> pending;  // end, handed.
  std::vector<std::shared_ptr<const service_snapshot>> samples;
  std::size_t ingested = 0;
  std::size_t intervals = 0;
  std::exception_ptr producer_error;
  try {
    for (std::size_t pass = 0;; ++pass) {
      const std::size_t offset = pass * in.reader->intervals();
      const scoped_span replay("trace.replay", -1);
      in.reader->stream_frames([&](measurement_chunk& chunk) {
        const bool stop =
            opt.chunks > 0
                ? ingested >= opt.chunks
                : ingested >= service_min_chunks &&
                      seconds_between(start, now_ns()) >= opt.seconds;
        if (stop) throw stop_replay{};
        // The replay's sink: time here is not the trace layer's.
        const scoped_span sink("bench.sink", -1);
        chunk.first_interval += offset;
        const std::size_t end = chunk.first_interval + chunk.count;
        handed_end.store(static_cast<std::int64_t>(end),
                         std::memory_order_release);
        const std::int64_t handed = now_ns();
        pending.emplace_back(end, handed);
        {
          const scoped_span span("service.ingest", -1);
          service.ingest(chunk);
        }
        const std::int64_t returned = now_ns();
        ingest_us.push_back(seconds_between(handed, returned) * 1e6);
        const std::shared_ptr<const service_snapshot> snap = service.snapshot();
        while (!pending.empty() && pending.front().first <= snap->end_interval()) {
          fresh_ms.push_back(seconds_between(pending.front().second, returned) *
                             1e3);
          pending.pop_front();
        }
        // link_mae scores the first pass: every distinct window of the
        // stream once, whatever the run's length.
        if (ingested < stream_chunks) samples.push_back(snap);
        intervals += chunk.count;
        ++ingested;
      });
    }
  } catch (const stop_replay&) {
  } catch (...) {
    producer_error = std::current_exception();
  }
  {
    const scoped_span span("service.flush", -1);
    service.flush();
  }
  const std::int64_t flushed = now_ns();
  const std::shared_ptr<const service_snapshot> last = service.snapshot();
  while (!pending.empty() && pending.front().first <= last->end_interval()) {
    fresh_ms.push_back(seconds_between(pending.front().second, flushed) * 1e3);
    pending.pop_front();
  }
  const double timed = seconds_between(start, flushed);
  done.store(true, std::memory_order_release);
  reader.join();
  root.close();
  perfbench::set_root_span(0);
  if (producer_error) std::rethrow_exception(producer_error);

  // Output checks: every chunk became visible, no torn snapshot, and the
  // final window fit equals a one-shot fit over the window's chunks.
  chk.expect(pending.empty(), "chunks never covered by a published snapshot");
  std::uint64_t torn = 0;
  std::vector<double> read_due_ns;  // relative to the timed phase start.
  std::vector<double> read_start_ns;
  std::vector<double> read_end_ns;
  std::vector<double> lag_chunks;
  std::vector<std::uint64_t> versions;
  for (const read_sample& s : reads) {
    chk.expect(!s.torn, "torn snapshot read");
    torn += s.torn ? 1 : 0;
    read_due_ns.push_back(static_cast<double>(s.due - start));
    read_start_ns.push_back(static_cast<double>(s.start - start));
    read_end_ns.push_back(static_cast<double>(s.end - start));
    lag_chunks.push_back(static_cast<double>(std::max<std::int64_t>(
                             s.lag_intervals, 0)) /
                         static_cast<double>(service_chunk));
    versions.push_back(s.version);
  }
  std::sort(versions.begin(), versions.end());
  const auto distinct = static_cast<double>(
      std::unique(versions.begin(), versions.end()) - versions.begin());

  const std::unique_ptr<estimator> reference = make_estimator(cfg.estimator);
  const std::size_t window = std::min(ingested, service_window);
  std::size_t ref_intervals = 0;
  for (std::size_t k = ingested - window; k < ingested; ++k) {
    ref_intervals += in.chunks[k % stream_chunks].count;
  }
  reference->begin_fit(*last->topo_ptr(), ref_intervals);
  for (std::size_t k = ingested - window; k < ingested; ++k) {
    reference->consume(in.chunks[k % stream_chunks]);
  }
  reference->end_fit();
  const link_estimates expected = reference->links();
  bool identical = last->links().size() == expected.congestion.size();
  for (link_id e = 0; identical && e < last->links().size(); ++e) {
    const snapshot_link& got = last->link_estimate(e);
    identical = got.estimated == expected.estimated.test(e) &&
                (!got.estimated || got.congestion == expected.congestion[e]);
  }
  chk.expect(identical, "final snapshot differs from the one-shot window fit");
  chk.expect(ingested > 0, "no chunk ingested");

  record::rows accuracy;
  std::vector<double> mae;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    mae.push_back(snapshot_mae(*samples[i], in.chunks));
    accuracy.push_back({"sample/" + std::to_string(i), "Independence",
                        "mean_abs_error", mae.back()});
  }

  const service_stats& stats = service.stats();
  rec.number("timed_s", timed);
  rec.number("chunks", static_cast<double>(ingested));
  rec.number("intervals", static_cast<double>(intervals));
  rec.numbers("ingest_us", ingest_us);
  rec.numbers("fresh_ms", fresh_ms);
  rec.numbers("read_due_ns", read_due_ns);
  rec.numbers("read_start_ns", read_start_ns);
  rec.numbers("read_end_ns", read_end_ns);
  rec.numbers("lag_chunks", lag_chunks);
  rec.numbers("mae", mae);
  rec.number("reads", static_cast<double>(reads.size()));
  rec.number("torn_reads", static_cast<double>(torn));
  rec.number("refits", static_cast<double>(stats.refits.load()));
  rec.number("versions_seen", distinct);
  rec.accuracy(accuracy);
  std::filesystem::remove(path);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  const ntom::flags flags(argc, argv);
  options opt;
  opt.workload = flags.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 10.0);
  opt.rounds = static_cast<std::size_t>(flags.get_int("rounds", 0));
  opt.chunks = static_cast<std::size_t>(flags.get_int("chunks", 0));
  opt.threads = static_cast<std::size_t>(flags.get_int("threads", 1));
  opt.out = flags.get_string("out", "");
  opt.spans = flags.get_string("spans", "");
  opt.work_dir = flags.get_string("work-dir", ".");
  if (opt.out.empty() || opt.threads == 0 ||
      (opt.workload != "boolean" && opt.workload != "probability" &&
       opt.workload != "service")) {
    std::fprintf(stderr,
                 "usage: ntom_bench --workload=boolean|probability|service "
                 "--seed=N --seconds=S --threads=K --out=FILE\n");
    return 2;
  }
#ifdef PERFBENCH_TRACED
  perfbench::enable_tracing();
#endif
  register_pinned();

  record rec;
  checks chk;
  rec.text("workload", opt.workload);
  rec.number("seed", static_cast<double>(opt.seed));
  rec.number("threads", static_cast<double>(opt.threads));
  rec.text("compiler", PERFBENCH_COMPILER);
  rec.text("build_type", PERFBENCH_BUILD_TYPE);
  rec.text("simd_active", simd::level_name(simd::active_level()));
  rec.text("simd_detected", simd::level_name(simd::detected_level()));
  rec.number("traced", perfbench::tracing_enabled() ? 1.0 : 0.0);
  try {
    if (opt.workload == "service") {
      run_service(opt, rec, chk);
    } else {
      run_batch(opt, rec, chk);
    }
  } catch (const std::exception& e) {
    chk.expect(false, std::string("workload aborted: ") + e.what());
  }
  chk.expect(perfbench::misnested_spans() == 0, "misnested spans");
  rec.number("peak_rss_kb", static_cast<double>(peak_rss_kb()));
  rec.number("attempted", static_cast<double>(chk.attempted));
  rec.number("failed", static_cast<double>(chk.failed));
  rec.texts("failures", chk.failures);
  try {
    rec.write(opt.out);
    if (!opt.spans.empty()) perfbench::write_spans(opt.spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntom_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
