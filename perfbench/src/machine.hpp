#pragma once

#include <cstdint>
#include <string>

// Machine fingerprint and noise diagnostics recorded with every run
// (ungated), so an outlier run can be explained: host steal time from
// /proc/stat, and the process's kernel-time share and minor page faults
// from getrusage.

namespace perfbench {

struct Fingerprint {
  std::string cpu_model;
  int nproc = 0;
  std::string backend;  ///< dispatched kernel backend
  std::string dtype;    ///< compute dtype
  int lanes = 0;        ///< compute lanes of the shared thread pool
};

Fingerprint fingerprint();

/// Process and host counters at one instant.
struct Counters {
  std::uint64_t host_jiffies = 0;  ///< all CPUs, all states (/proc/stat)
  std::uint64_t steal_jiffies = 0;
  double user_seconds = 0;  ///< this process (getrusage)
  double sys_seconds = 0;
  std::int64_t minor_faults = 0;
};

Counters read_counters();

struct NoiseDiagnostics {
  double steal_share = 0;  ///< stolen share of host CPU time
  double sys_share = 0;    ///< kernel share of this process's CPU time
  std::int64_t minor_faults = 0;
};

/// CPU time of this process so far, summed over its threads. The kernel
/// leaves out time the host stole from the VM and time a thread spent
/// blocked (waiting on a peer, a future or the disk), so on a shared host
/// it counts the program's own work where wall time also counts the
/// neighbours'.
double process_cpu_seconds();

NoiseDiagnostics diagnostics_between(const Counters& before,
                                     const Counters& after);

}  // namespace perfbench
