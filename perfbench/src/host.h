#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Host-noise record: what else the machine was doing while a run measured.
/// Steal ticks are the hypervisor's share of the run window (/proc/stat),
/// which is what a bimodal multi-core result should be checked against.
struct HostSample {
  uint64_t steal_ticks = 0;
  uint64_t total_ticks = 0;
  double load_avg_1m = 0.0;
};

struct HostRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  HostSample begin;
  HostSample end;

  uint64_t StealTicks() const { return end.steal_ticks - begin.steal_ticks; }
  double StealShare() const {
    const uint64_t total = end.total_ticks - begin.total_ticks;
    return total == 0 ? 0.0
                      : static_cast<double>(StealTicks()) /
                            static_cast<double>(total);
  }
  std::string ToJson() const;
};

/// Reads /proc/stat and /proc/loadavg now (zeros where unavailable).
HostSample SampleHost();

/// nproc and the CPU model; `begin` sampled now.
HostRecord BeginHostRecord();

/// Peak resident set of this process so far, in MiB (getrusage).
double PeakRssMib();

}  // namespace perfbench
