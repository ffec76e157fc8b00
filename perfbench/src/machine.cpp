#include "machine.hpp"

#include <sys/resource.h>

#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "sgnn/tensor/kernels.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace perfbench {

Fingerprint fingerprint() {
  Fingerprint f;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        f.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (f.cpu_model.empty()) f.cpu_model = "unknown";
  f.nproc = static_cast<int>(std::thread::hardware_concurrency());
  f.backend = sgnn::kernels::backend_name(sgnn::kernels::active_backend());
  f.dtype = sgnn::kernels::dtype_name(sgnn::kernels::active_compute_dtype());
  f.lanes = sgnn::ThreadPool::instance().size();
  return f;
}

Counters read_counters() {
  Counters c;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream fields(line.substr(4));
    // Columns: user nice system idle iowait irq softirq steal, then guest
    // time, which user/nice already include.
    std::uint64_t value = 0;
    for (int column = 0; column < 8 && fields >> value; ++column) {
      c.host_jiffies += value;
      if (column == 7) c.steal_jiffies = value;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  c.user_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                   static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  c.sys_seconds = static_cast<double>(usage.ru_stime.tv_sec) +
                  static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  c.minor_faults = usage.ru_minflt;
  return c;
}

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

NoiseDiagnostics diagnostics_between(const Counters& before,
                                     const Counters& after) {
  NoiseDiagnostics d;
  const auto jiffies = static_cast<double>(after.host_jiffies -
                                           before.host_jiffies);
  if (jiffies > 0) {
    d.steal_share =
        static_cast<double>(after.steal_jiffies - before.steal_jiffies) /
        jiffies;
  }
  const double user = after.user_seconds - before.user_seconds;
  const double sys = after.sys_seconds - before.sys_seconds;
  if (user + sys > 0) d.sys_share = sys / (user + sys);
  d.minor_faults = after.minor_faults - before.minor_faults;
  return d;
}

}  // namespace perfbench
