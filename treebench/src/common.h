// Shared plumbing of the treenum benchmark: arguments, clocks, sample
// statistics, the run report (metrics, checks, operation counts), the host
// fingerprint and the span tracer of the traced build.
#ifndef TREEBENCH_COMMON_H_
#define TREEBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace treebench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// Check whose expectation is deliberately falsified (self-test of the
  /// checks; empty in normal runs).
  std::string break_check;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Time since main() started, in seconds (the cold set-up clock).
double SinceStartS();
void MarkProcessStart();

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// Moves the calling thread round-robin over the CPUs it may run on. The
/// vCPUs of a shared host differ in speed by up to half, and which ones are
/// slow changes from minute to minute; a thread left alone stays on one of
/// them for a whole run, so whole runs disagree. Moving every ~0.2 s puts
/// an equal share of every run's samples on each vCPU; moving more often
/// would charge the refill of the private caches to the operations. The
/// destructor restores the original affinity.
class CpuRotor {
 public:
  CpuRotor();
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  /// Pins the thread to the next CPU.
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Everything a run reports. End-to-end metrics are printed by the untraced
/// build, per-layer metrics by the traced build; both print the named
/// reference figures and the host fingerprint on earlier lines.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void EndToEnd(const std::string& name, double value, const char* unit) {
    e2e_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layer_.push_back({name, value, unit});
  }
  /// A reference figure under its metric name (printed, unbounded).
  void Figure(const std::string& name, double value, const char* unit) {
    figures_.push_back({name, value, unit});
  }

  /// Records one correctness check; a failed one marks the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  /// True when --break names this check: the caller falsifies the
  /// expectation it compares against.
  bool Broken(const std::string& name) const {
    return args_.break_check == name;
  }

  void Attempt(uint64_t n = 1) { attempted_ += n; }

  bool correct() const { return correct_; }
  const Args& args() const { return args_; }

  /// Prints the host line, the reference-figure line and, last, the result
  /// line. `traced` selects per-layer metrics instead of end-to-end ones.
  void Print(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  const Args& args_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Metric> figures_;
  std::vector<std::string> checks_seen_;
  uint64_t attempted_ = 0;
  bool correct_ = true;
};

/// Host vCPU steal time so far, in milliseconds (from /proc/stat).
double StealMs();
/// Peak resident set of this process, in MiB.
double PeakRssMb();

// ---- Tracing ---------------------------------------------------------------
//
// In the traced build every call the benchmark makes into a layer's public
// function is wrapped in a span (name, start, end, parent, request id).
// Spans are kept in per-thread memory and written out when the run ends; the
// untraced build compiles the macros to nothing.

#ifdef TREEBENCH_TRACED
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

class Tracer {
 public:
  /// Starts a new request (command or probe); spans opened until the next
  /// call share its id.
  static void BeginRequest();
  static uint32_t Open(const char* name);
  static void Close(uint32_t span);
  /// Writes every span to `path` (tab-separated) and returns per-name
  /// (calls, total ms, self ms), self time being the span's duration minus
  /// the part its child spans cover.
  struct NameTotals {
    std::string name;
    uint64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  static std::vector<NameTotals> Finish(const std::string& path);
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (kTraced) id_ = Tracer::Open(name);
  }
  ~ScopedSpan() {
    if (kTraced) Tracer::Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t id_ = 0;
};

#define TB_CONCAT2(a, b) a##b
#define TB_CONCAT(a, b) TB_CONCAT2(a, b)
/// Span around the rest of the enclosing scope.
#define TB_SPAN(name) ::treebench::ScopedSpan TB_CONCAT(tb_span_, __LINE__)(name)

/// Allocation count so far (traced build only; 0 otherwise).
uint64_t AllocsSoFar();

// ---- Workloads -------------------------------------------------------------

void RunDocEdits(Report& report);
void RunEnumerate(Report& report);
void RunRegister(Report& report);
void RunServe(Report& report);

}  // namespace treebench

#endif  // TREEBENCH_COMMON_H_
