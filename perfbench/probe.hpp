// Host speed probe.
//
// Shared hosts run the benchmark at a speed that drifts by tens of percent
// within seconds and over minutes, as other tenants load the cores and the
// cache and memory they share. On a 4-vCPU Xeon VM, 20-second windows of
// one illumina_sam run differed by up to 30% in reads per wall second,
// which hides any change to the mapper smaller than that. The probe is a
// fixed reference computation timed between chunks of the measured passes:
// an affine-gap Smith-Waterman fill (compute) interleaved with a dependent
// random walk over a 32 MiB table (cache and memory latency), the two kinds
// of work the mapper does. It uses nothing from the library, so no change to
// the mapper changes what it measures. Its rate relative to fixed reference
// rates is the host's speed at that moment; throughput divided by the mean
// speed over a run is throughput on a host at reference speed.
//
// The probe runs in a child process (this program with `--phase probe`),
// so its table is neither in the mapper's address space nor in its peak
// RSS, and it is idle, blocked on a pipe, between readings.
#pragma once

#include <sys/types.h>

#include <chrono>

namespace perfbench {

class HostProbe {
 public:
  /// Starts the probe process from this program's executable.
  HostProbe();
  /// Closes the request pipe, which ends the probe process, and waits for it.
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// The host's speed now relative to the reference rates (1 = reference
  /// speed). One reading takes about 0.1 s of one core.
  double speed();

  /// True once a second has passed since the last reading.
  bool due() const;

 private:
  pid_t pid_ = -1;
  int request_fd_ = -1;  ///< write end of the child's stdin
  int reply_fd_ = -1;    ///< read end of the child's stdout
  std::chrono::steady_clock::time_point last_;
};

/// The probe process: builds the table, then answers every byte read from
/// stdin with one reading (a double) on stdout until stdin closes.
int serve_probe();

}  // namespace perfbench
