#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace pb {

void SleepUntilNs(int64_t ns) {
  // Coarse sleep, then spin the last stretch: the open-loop generator's
  // lateness must come from the system under test, not from timer slack.
  constexpr int64_t kSpinNs = 50'000;
  int64_t now = NowNs();
  if (ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now - kSpinNs));
  }
  while (NowNs() < ns) {
  }
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(s.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Samples::WindowedQuantile(double q, size_t window) const {
  if (v_.size() < 2 * window) return Quantile(q);
  Samples per_window;
  for (size_t begin = 0; begin + window <= v_.size(); begin += window) {
    Samples w;
    w.v_.assign(v_.begin() + static_cast<long>(begin),
                v_.begin() + static_cast<long>(begin + window));
    per_window.Add(w.Quantile(q));
  }
  return per_window.Median();
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  if (!std::isfinite(value)) value = 0;
  metrics_[name] = Entry{value, unit, samples};
  std::printf("  %-40s %16.6f %-9s n=%zu\n", name.c_str(), value,
              unit.c_str(), samples);
  std::fflush(stdout);
}

void Report::Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& keep) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!keep.empty() &&
        std::find(keep.begin(), keep.end(), name) == keep.end()) {
      continue;
    }
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << e.value << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// --- tracing ---------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuf* Tracer::Local() {
  thread_local ThreadBuf* local = nullptr;
  if (local == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    buf->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(mu_);
    buf->tid = static_cast<uint32_t>(bufs_.size());
    local = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return local;
}

int32_t Tracer::Begin(const char* name, uint32_t tick) {
  ThreadBuf* b = Local();
  const int32_t index = static_cast<int32_t>(b->spans.size());
  b->spans.push_back(Span{name, 0, 0, b->current, tick});
  b->current = index;
  b->spans.back().start = NowNs();
  return index;
}

void Tracer::End(int32_t index) {
  const int64_t end = NowNs();
  ThreadBuf* b = Local();
  Span& s = b->spans[static_cast<size_t>(index)];
  s.end = end;
  b->current = s.parent;
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::map<std::string, Summary> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : bufs_) {
    // Children nest strictly inside their parent on one thread, so a
    // parent's self time is its duration minus its children's durations.
    std::vector<double> child_ns(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start);
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      const double dur = static_cast<double>(s.end - s.start);
      Summary& sum = out[s.name];
      sum.count++;
      sum.total_ns += dur;
      sum.self_ns += dur - child_ns[i];
      sum.durations_ns.Add(dur);
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              size_t max_spans) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  f << "{\"traceEvents\":[";
  bool first = true;
  size_t written = 0;
  for (const auto& b : bufs_) {
    for (const Span& s : b->spans) {
      if (written++ == max_spans) break;
      f << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << b->tid
        << ",\"ts\":" << static_cast<double>(s.start) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1e3
        << ",\"args\":{\"tick\":" << s.tick << "}}";
      first = false;
    }
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : bufs_) n += b->spans.size();
  return n;
}

// --- correctness -------------------------------------------------------------

void Checker::Fail(const std::string& what) {
  failed_.fetch_add(1);
  if (!quiet_ && reported_.fetch_add(1) < 10) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Checker::Mismatch(double got, double want, const std::string& where) {
  mismatches_.fetch_add(1);
  char buf[128];
  std::snprintf(buf, sizeof(buf), " got %.17g want %.17g", got, want);
  Fail("bitwise mismatch at " + where + buf);
}

// --- process memory ----------------------------------------------------------

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(f, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double RssMb() { return StatusFieldMb("VmRSS"); }

double PeakRssMb() { return StatusFieldMb("VmHWM"); }

void ReleaseFreedMemory() { malloc_trim(0); }

void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

void CheckOk(const lahar::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "setup failed: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace pb
