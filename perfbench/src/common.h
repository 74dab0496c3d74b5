// Shared pieces of the repository benchmark: clocks and sample statistics,
// the metric report (human table + the one-line JSON result), the span
// tracer, the bitwise reference checker and process-memory probes.
#ifndef LAHAR_PERFBENCH_COMMON_H_
#define LAHAR_PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace pb {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until the steady clock reads `ns` (returns at once if past).
void SleepUntilNs(int64_t ns);

/// \brief A bag of measurements with exact order statistics.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Median over consecutive windows of `window` samples (in insertion
  /// order) of each window's q-quantile; the plain quantile when fewer
  /// than two windows fit. Robust to one stalled stretch of the run.
  double WindowedQuantile(double q, size_t window) const;

 private:
  std::vector<double> v_;
};

/// \brief Collected metrics of one run: printed as a table as they arrive
/// and emitted as the final JSON line.
class Report {
 public:
  /// Records `name` = `value` [unit] over `samples` measurements.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  /// Prints a free-form note line (never the last line of stdout).
  void Note(const std::string& line);
  /// Emits {"correct","attempted","failed","metrics"} keeping only the
  /// metrics named in `keep` (all when empty).
  void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& keep) const;
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Entry> metrics_;
};

// --- tracing ---------------------------------------------------------------

/// \brief In-memory span tracer. Spans live in per-thread buffers; a span's
/// parent is the innermost span open on the same thread when it began.
/// Disabled (the default) every ScopedSpan is a branch and nothing else.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    int32_t parent;  // index into the same thread's buffer, -1 at top
    uint32_t tick;
  };
  struct Summary {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    Samples durations_ns;
  };

  static Tracer& Get();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  int32_t Begin(const char* name, uint32_t tick);
  void End(int32_t index);

  /// Per-name aggregate over every thread's spans recorded so far. Call
  /// only when no traced thread is running.
  std::map<std::string, Summary> Summarize() const;
  /// Writes up to `max_spans` spans as Chrome trace-event JSON (viewable
  /// offline in Perfetto or chrome://tracing). Returns false when the file
  /// cannot be written.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;
  size_t num_spans() const;

 private:
  struct ThreadBuf {
    std::vector<Span> spans;
    int32_t current = -1;
    uint32_t tid = 0;
  };
  ThreadBuf* Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint32_t tick = 0)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, tick)
                                       : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

// --- correctness -------------------------------------------------------------

/// \brief Counts attempted and failed operations; a value mismatch against
/// the engine-direct reference is one kind of failure.
class Checker {
 public:
  /// A quiet checker counts failures without printing them.
  explicit Checker(bool quiet = false) : quiet_(quiet) {}
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& what);
  /// Bitwise comparison (operator== on doubles, as the runtime promises).
  /// A mismatch is a failure named by `where()`, which only runs then.
  template <typename Where>
  bool Expect(double got, double want, Where where) {
    attempted_.fetch_add(1);
    if (got == want) return true;
    Mismatch(got, want, where());
    return false;
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  uint64_t mismatches() const { return mismatches_.load(); }

 private:
  void Mismatch(double got, double want, const std::string& where);

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> mismatches_{0};
  std::atomic<uint64_t> reported_{0};
  bool quiet_;
};

// --- process memory ----------------------------------------------------------

/// Current resident set size in MB (0 when /proc is unavailable).
double RssMb();
/// Peak resident set size in MB since the last ResetPeakRss().
double PeakRssMb();
/// Resets the kernel's peak-RSS mark to the current RSS (best effort).
void ResetPeakRss();
/// Returns freed heap memory of every malloc arena to the OS.
void ReleaseFreedMemory();

/// Exits with a message when `status` is not OK (setup cannot continue).
void CheckOk(const lahar::Status& status, const std::string& what);

}  // namespace pb

#endif  // LAHAR_PERFBENCH_COMMON_H_
