// The three benchmark workloads. Each generates its inputs from the seed,
// measures for the requested number of seconds, verifies every delivered
// value against the engine-direct reference, and adds its metrics to the
// report: end-to-end metrics in an untraced run, per-layer metrics (from
// spans around the benchmark's own calls and public counters) in a traced
// one.
#ifndef LAHAR_PERFBENCH_WORKLOADS_H_
#define LAHAR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace pb {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// \brief End-to-end samples every workload fills in.
struct EndToEnd {
  Samples setup_s;
  Samples ticks_per_s;
  Samples latency_us;
  Samples register_ms;
  Samples checkpoint_ms;
  double max_sustainable_tps = 0;
};

/// Adds the end-to-end metrics (medians and tail percentiles with their
/// sample counts) plus rss_mb, measured against `rss_base_mb`.
void ReportEndToEnd(const EndToEnd& e, double rss_base_mb, Report* report);

/// Releases freed heap to the OS and resets the peak-RSS mark; returns the
/// resident size that rss_mb is measured above.
double MemoryBaseline();

void RunArchivedReplay(const RunArgs& args, Report* report, Checker* checker);
void RunRealtimeWire(const RunArgs& args, Report* report, Checker* checker);
void RunChurnMixed(const RunArgs& args, Report* report, Checker* checker);

}  // namespace pb

#endif  // LAHAR_PERFBENCH_WORKLOADS_H_
