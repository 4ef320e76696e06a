// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own wrappers around the calls it
// makes into each layer (the BatchExtender / TracedBatchExtender /
// BatchChainer / sink functors the mapper accepts, the FASTQ reader, the
// mapper and engine constructors); nothing inside the library is
// instrumented. A Scope opened on a null recorder costs nothing, which is
// how the untraced runs measure end-to-end metrics with every timer off.
//
// Each span has a name, start and end on steady-clock time, the span that
// was open on the same thread when it started (its parent), and the chunk
// (or pass) it belongs to. Spans are kept in memory and written as Chrome
// trace-event JSON (chrome://tracing, Perfetto) when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: no enclosing span on this thread
  std::uint32_t tid = 0;
  std::int64_t unit = -1;  ///< chunk or pass id (-1: none)
  std::array<std::pair<const char*, double>, 3> counters{};
  int n_counters = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. With a null tracer every member is a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t unit = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attaches a work counter (at most three per span).
    void count(const char* key, double value);

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Records a span whose interval was measured by the caller.
  void record(Span span);
  std::int64_t now_ns() const;

  /// Removes and returns every span recorded so far.
  std::vector<Span> drain();

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Sums of one batch of spans: "<name>" → total ms, "<name>.calls" → span
/// count, "<name>.<counter>" → counter total, plus "self.<name>" → the
/// span's time not covered by its direct children.
std::map<std::string, double> summarize(const std::vector<Span>& spans);

/// Writes `spans` as a Chrome trace-event JSON array of complete events.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
