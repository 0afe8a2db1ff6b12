// Observation contexts: per-run and per-sweep bundles of trace + counters.
//
// A RunObserver is owned by exactly one simulation run (single-threaded).  A
// SweepObserver owns one RunObserver per parallel-runner task, allocated at
// *submission* time on the submitting thread, so worker threads never share
// observation state and the merged output files are a pure function of
// submission order -- byte-identical at any --jobs value.
//
// Output formats:
//  * write_trace()        -- Chrome trace_event JSON (chrome://tracing,
//                            Perfetto "Open trace file").
//  * write_counters_csv() -- long format, one row per (task, mark, entry):
//                            task,workload,scenario,t_ms,kind,counter,value
//                            with a final end-of-run snapshot per task.
// Both schemas are documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace coolpim::obs {

/// Everything one simulation run records: a trace buffer plus a counter
/// registry.  Attach to a run via sys::SystemConfig::observer.
struct RunObserver {
  TraceBuffer trace_buffer;
  CounterRegistry counters;

  [[nodiscard]] Trace trace() { return Trace{&trace_buffer}; }
};

/// Sweep-level collector handed to runner::RunOptions::obs.  Thread-safety
/// contract: add_task() is called from the submitting thread (the runner's
/// submission loop is sequential); each TaskRecord is then touched only by
/// the worker that runs the task; the write_* methods are called after the
/// sweep completes.
class SweepObserver {
 public:
  struct TaskRecord {
    std::uint32_t index{0};
    std::string workload;
    std::string scenario;
    std::uint64_t key{0};   // runner experiment key (stable task identity)
    std::uint64_t seed{0};  // RNG seed derived from the key
    bool cache_hit{false};
    Time exec_time{Time::zero()};
    RunObserver obs;
  };

  /// Register the next task; the returned record stays valid for the
  /// observer's lifetime (deque storage, no reallocation of elements).
  TaskRecord* add_task(std::string workload, std::string scenario);

  [[nodiscard]] std::size_t task_count() const;

  void write_trace(std::ostream& os) const;
  void write_counters_csv(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::deque<TaskRecord> tasks_;
};

}  // namespace coolpim::obs
