#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "util/alloc_gauge.h"
#include "util/simd_kernels.h"

namespace treebench {

namespace {

uint64_t g_start_ns = 0;
double g_steal_start_ms = 0;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// The per-layer metrics, in report order, with their units.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"doc_build_ms", "ms"},
    {"compile_ms", "ms"},
    {"pipeline_build_ms", "ms"},
    {"term_edit_us", "us"},
    {"term_move_us", "us"},
    {"word_term_edit_us", "us"},
    {"refresh_us_per_edit", "us"},
    {"rebuilt_nodes_per_edit", "count"},
    {"path_copies_per_edit", "count"},
    {"boxes_per_edit", "count"},
    {"boxes_per_batched_edit", "count"},
    {"allocs_per_edit", "count"},
    {"warmstart_ms", "ms"},
    {"image_bytes", "bytes"},
    {"pin_ns", "ns"},
    {"cursor_open_us", "us"},
    {"ns_per_answer", "ns"},
    {"steps_per_answer_max", "count"},
    {"submit_ns", "ns"},
    {"commands_per_commit", "count"},
    {"steals", "count"},
    {"generator_lag_p99_us", "us"},
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void MarkProcessStart() {
  g_start_ns = NowNs();
  g_steal_start_ms = StealMs();
}

double SinceStartS() {
  return static_cast<double>(NowNs() - g_start_ns) / 1e9;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks, so the median of an even
  // count is the mean of the two middle samples.
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

CpuRotor::CpuRotor() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

CpuRotor::~CpuRotor() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotor::Next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  sched_setaffinity(0, sizeof(set), &set);
  next_ = (next_ + 1) % cpus_.size();
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) {
    if (correct_) {
      std::fprintf(stderr, "treebench: check %s FAILED: %s\n", name.c_str(),
                   detail.c_str());
    }
    correct_ = false;
  }
  if (std::find(checks_seen_.begin(), checks_seen_.end(), name) ==
      checks_seen_.end()) {
    checks_seen_.push_back(name);
  }
}

double StealMs() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (uint64_t& x : v) {
    if (!(in >> x)) return 0;
  }
  // Field order: user nice system idle iowait irq softirq steal.
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(v[7]) * 1000.0 / static_cast<double>(hz)
                : 0;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t AllocsSoFar() { return treenum::AllocCount(); }

void Report::Print(bool traced) const {
  const auto& kernels = treenum::ActiveKernels();
  std::ostringstream host;
  host << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"simd_tier\": " << JsonString(kernels.name)
       << ", \"compiler\": " << JsonString(__VERSION__)
       << ", \"build_type\": " << JsonString(TREEBENCH_BUILD_TYPE)
       << ", \"traced\": " << (traced ? "true" : "false")
       << ", \"alloc_gauge\": "
       << (treenum::AllocGaugeActive() ? "true" : "false")
       << ", \"steal_ms\": " << JsonNumber(StealMs() - g_steal_start_ms)
       << ", \"wall_s\": " << JsonNumber(SinceStartS())
       << ", \"workload\": " << JsonString(args_.workload)
       << ", \"seed\": " << args_.seed << ", \"seconds\": " << args_.seconds
       << "}}";
  std::printf("%s\n", host.str().c_str());

  std::ostringstream fig;
  fig << "{\"figures\": {";
  for (size_t i = 0; i < figures_.size(); ++i) {
    fig << (i ? ", " : "") << JsonString(figures_[i].name) << ": {\"value\": "
        << JsonNumber(figures_[i].value)
        << ", \"unit\": " << JsonString(figures_[i].unit) << "}";
  }
  fig << "}, \"checks\": [";
  for (size_t i = 0; i < checks_seen_.size(); ++i) {
    fig << (i ? ", " : "") << JsonString(checks_seen_[i]);
  }
  fig << "]}";
  std::printf("%s\n", fig.str().c_str());

  auto metric_list = [](const std::vector<Metric>& ms) {
    std::ostringstream o;
    for (size_t i = 0; i < ms.size(); ++i) {
      o << (i ? ", " : "") << JsonString(ms[i].name) << ": {\"value\": "
        << JsonNumber(ms[i].value) << ", \"unit\": " << JsonString(ms[i].unit)
        << "}";
    }
    return o.str();
  };
  std::printf("{\"end_to_end\": {%s}}\n", metric_list(e2e_).c_str());

  // Every traced run reports the whole per-layer set; a layer the workload
  // does not reach reads 0.
  std::vector<Metric> layers;
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = std::find_if(layer_.begin(), layer_.end(),
                           [&](const Metric& m) { return m.name == name; });
    layers.push_back({name, it == layer_.end() ? 0.0 : it->value, unit});
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": 0"
      << ", \"metrics\": {" << metric_list(traced ? layers : e2e_) << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// ---- Tracer ----------------------------------------------------------------

namespace {

struct SpanRec {
  const char* name;
  uint32_t parent;  // index + 1 in the same thread buffer; 0 = none
  uint32_t thread;
  uint64_t request;
  uint64_t start;
  uint64_t end;
};

struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<SpanRec> spans;
  std::vector<uint32_t> open;  // stack of open span indices + 1
  uint64_t request = 0;
};

std::mutex g_trace_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_trace_threads;
std::atomic<uint64_t> g_next_request{1};

ThreadSpans& Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_trace_mu);
    g_trace_threads.push_back(std::make_unique<ThreadSpans>());
    local = g_trace_threads.back().get();
    local->thread = static_cast<uint32_t>(g_trace_threads.size() - 1);
    local->spans.reserve(1 << 16);
  }
  return *local;
}

}  // namespace

void Tracer::BeginRequest() {
  Local().request = g_next_request.fetch_add(1, std::memory_order_relaxed);
}

uint32_t Tracer::Open(const char* name) {
  ThreadSpans& t = Local();
  const uint32_t parent = t.open.empty() ? 0 : t.open.back();
  t.spans.push_back({name, parent, t.thread, t.request, NowNs(), 0});
  const uint32_t id = static_cast<uint32_t>(t.spans.size());
  t.open.push_back(id);
  return id;
}

void Tracer::Close(uint32_t span) {
  ThreadSpans& t = Local();
  t.spans[span - 1].end = NowNs();
  t.open.pop_back();
}

std::vector<Tracer::NameTotals> Tracer::Finish(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  std::unordered_map<std::string, NameTotals> totals;
  std::ofstream out(path);
  if (out) out << "thread\tspan\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const auto& t : g_trace_threads) {
    // Child coverage per span: children are nested inside their parent on
    // one thread, so their durations add up without overlap.
    std::vector<uint64_t> child_ns(t->spans.size(), 0);
    for (const SpanRec& s : t->spans) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end - s.start;
    }
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRec& s = t->spans[i];
      if (out) {
        out << s.thread << '\t' << i + 1 << '\t' << s.parent << '\t'
            << s.request << '\t' << s.name << '\t' << s.start << '\t' << s.end
            << '\n';
      }
      NameTotals& nt = totals[s.name];
      nt.name = s.name;
      ++nt.calls;
      nt.total_ms += static_cast<double>(s.end - s.start) / 1e6;
      nt.self_ms += static_cast<double>(s.end - s.start - child_ns[i]) / 1e6;
    }
  }
  std::vector<NameTotals> result;
  for (auto& kv : totals) result.push_back(kv.second);
  std::sort(result.begin(), result.end(),
            [](const NameTotals& a, const NameTotals& b) {
              return a.name < b.name;
            });
  return result;
}

}  // namespace treebench
