#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "metrics.h"

namespace perfbench {

HostSample SampleHost() {
  HostSample sample;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (stat >> label && label == "cpu") {
    // user nice system idle iowait irq softirq steal guest guest_nice
    uint64_t fields[10] = {};
    for (uint64_t& field : fields) {
      if (!(stat >> field)) break;
    }
    for (int i = 0; i < 8; ++i) sample.total_ticks += fields[i];
    sample.steal_ticks = fields[7];
  }
  std::ifstream loadavg("/proc/loadavg");
  loadavg >> sample.load_avg_1m;
  return sample;
}

HostRecord BeginHostRecord() {
  HostRecord record;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  record.nproc = online > 0 ? static_cast<unsigned>(online) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        record.cpu_model = line.substr(colon + 2);
      }
      break;
    }
  }
  record.begin = SampleHost();
  return record;
}

std::string HostRecord::ToJson() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu_model\": \""
      << JsonEscape(cpu_model) << "\", \"steal_ticks\": " << StealTicks()
      << ", \"steal_share\": " << FormatNumber(StealShare())
      << ", \"load_avg_1m_begin\": " << FormatNumber(begin.load_avg_1m)
      << ", \"load_avg_1m_end\": " << FormatNumber(end.load_avg_1m) << "}";
  return out.str();
}

double PeakRssMib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
