// Perf harness for the workload-profiling fast path, emitted as
// BENCH_graph.json.
//
// Three measurements:
//
//  - construction: end-to-end sys::WorkloadSet build (RMAT graph + all ten
//    GraphBIG profiles), at jobs = 1 (serial sampling and CSR build, one
//    profiling traversal after another) vs. the pool-parallel fast path,
//    with a field-by-field bit-equivalence check between the two (the
//    acceptance contract: parallelism must never change a profile).
//
//  - cache: the same build against a fresh COOLPIM_PROFILE_CACHE directory,
//    cold (computes + stores) then warm (every profile served from disk,
//    zero functional kernel runs), with the hit/miss counters reported.
//
//  - csr: graph::make_ldbc_like alone, without a pool vs. pooled: the
//    chunked edge sampling and the counting-sort CSR build both fan out.
//    bit_identical compares row_ptr, col_idx, weights and degrees.
//
// Flags: --out FILE (default BENCH_graph.json), --quick (CI smoke: small
// scale), --scale N (override), --jobs N (parallel width, default
// COOLPIM_JOBS or all cores).
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "graph/generator.hpp"
#include "runner/pool.hpp"
#include "sys/workloads.hpp"

#include "perf_support.hpp"

using namespace coolpim;

int main(int argc, char** argv) {
  const bench::Args args{argc, argv, {"--out", "--scale", "--jobs"}, {"--quick"}};
  const std::string out = args.value("--out", "BENCH_graph.json");
  const bool quick = args.flag("--quick");
  const unsigned scale = args.number("--scale", quick ? 12 : 16);
  unsigned jobs = args.number("--jobs", 0);
  if (jobs == 0) jobs = runner::Pool::default_jobs();
  const std::uint64_t seed = 1;

  // --- construction: jobs = 1 vs. parallel fast path -----------------------
  sys::WorkloadSet::BuildOptions serial_opt;
  serial_opt.jobs = 1;
  serial_opt.use_cache = false;
  bench::StopWatch clock;
  const sys::WorkloadSet serial_set{scale, seed, false, serial_opt};
  const double serial_ms = clock.elapsed_ms();

  sys::WorkloadSet::BuildOptions parallel_opt;
  parallel_opt.jobs = jobs;
  parallel_opt.use_cache = false;
  clock.restart();
  const sys::WorkloadSet parallel_set{scale, seed, false, parallel_opt};
  const double parallel_ms = clock.elapsed_ms();
  const bool match = serial_set.all() == parallel_set.all();

  // --- cache: cold store, then warm all-hits build --------------------------
  const auto cache_dir =
      std::filesystem::temp_directory_path() /
      ("coolpim-perf-graph-" + std::to_string(static_cast<std::uint64_t>(::getpid())));
  sys::WorkloadSet::BuildOptions cache_opt;
  cache_opt.jobs = jobs;
  cache_opt.cache_dir = cache_dir.string();

  clock.restart();
  const sys::WorkloadSet cold_set{scale, seed, false, cache_opt};
  const double cold_ms = clock.elapsed_ms();

  clock.restart();
  const sys::WorkloadSet warm_set{scale, seed, false, cache_opt};
  const double warm_ms = clock.elapsed_ms();

  const auto& cold = cold_set.build_stats();
  const auto& warm = warm_set.build_stats();
  const bool warm_all_hits = warm.cache_hits == warm_set.all().size() &&
                             warm.profiles_computed == 0 &&
                             warm_set.all() == serial_set.all();
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);

  // --- csr: graph build alone, serial vs. pooled ----------------------------
  clock.restart();
  const auto g_serial = graph::make_ldbc_like(scale, seed);
  const double csr_serial_ms = clock.elapsed_ms();
  runner::Pool pool{jobs};
  clock.restart();
  const auto g_parallel = graph::make_ldbc_like(scale, seed, &pool);
  const double csr_parallel_ms = clock.elapsed_ms();
  const bool csr_match = g_serial.row_ptr() == g_parallel.row_ptr() &&
                         g_serial.col_idx() == g_parallel.col_idx() &&
                         g_serial.weights() == g_parallel.weights() &&
                         g_serial.degrees() == g_parallel.degrees();

  bench::JsonWriter json;
  json.kv("schema", "coolpim-bench-graph/1");
  json.kv("quick", quick);
  json.kv("scale", static_cast<std::uint64_t>(scale));
  json.kv("jobs", static_cast<std::uint64_t>(jobs));
  json.begin_object("construction");
  json.kv("workloads", static_cast<std::uint64_t>(serial_set.all().size()));
  json.kv("serial_ms", serial_ms);
  json.kv("parallel_ms", parallel_ms);
  json.kv("speedup", parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
  json.kv("profiles_bit_identical", match);
  json.end();
  json.begin_object("cache");
  json.kv("cold_ms", cold_ms);
  json.kv("warm_ms", warm_ms);
  json.kv("warm_speedup_vs_serial", warm_ms > 0.0 ? serial_ms / warm_ms : 0.0);
  json.kv("cold_hits", cold.cache_hits);
  json.kv("cold_misses", cold.cache_misses);
  json.kv("cold_computed", cold.profiles_computed);
  json.kv("cold_stored", cold.cache_stored);
  json.kv("warm_hits", warm.cache_hits);
  json.kv("warm_misses", warm.cache_misses);
  json.kv("warm_computed", warm.profiles_computed);
  json.kv("warm_all_hits", warm_all_hits);
  json.end();
  json.begin_object("csr");
  json.kv("serial_ms", csr_serial_ms);
  json.kv("parallel_ms", csr_parallel_ms);
  json.kv("speedup", csr_parallel_ms > 0.0 ? csr_serial_ms / csr_parallel_ms : 0.0);
  json.kv("bit_identical", csr_match);
  json.end();
  const std::string doc = json.str();

  if (!bench::write_text_file(out, doc)) {
    std::cerr << "perf_graph: cannot write " << out << "\n";
    return 1;
  }
  std::cout << doc;
  std::cout << "Construction (scale " << scale << ", jobs " << jobs << "): serial "
            << serial_ms << " ms, parallel " << parallel_ms << " ms ("
            << (parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0) << "x, bit-identical: "
            << (match ? "yes" : "NO") << ")\n"
            << "Cache: cold " << cold_ms << " ms, warm " << warm_ms << " ms (all hits: "
            << (warm_all_hits ? "yes" : "NO") << ")\n"
            << "CSR build: serial " << csr_serial_ms << " ms, parallel " << csr_parallel_ms
            << " ms (bit-identical: " << (csr_match ? "yes" : "NO") << ")\n"
            << "Results written to " << out << "\n";
  // The equivalence checks are the whole point; fail loudly if they break.
  return (match && warm_all_hits && csr_match) ? 0 : 1;
}
