// treenum benchmark: entry point.
//
//   treebench --workload <doc_edits|enumerate|register|serve> --seed <n>
//             --seconds <s> [--trace-out <file>] [--break <check>]
//
// Every run does a fixed amount of seeded work: --seconds scales the number
// of rounds, never a timer, so the same arguments always do the same work.
// The last line of standard output is the result object; the lines before
// it carry the host fingerprint and the reference figures.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: treebench --workload <doc_edits|enumerate|register|"
               "serve> --seed <n> --seconds <s> [--trace-out <file>] "
               "[--break <check>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  treebench::MarkProcessStart();
  treebench::Args args;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--break") {
      args.break_check = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1 || args.seconds > 600) return Usage();

  treebench::Report report(args);
  try {
    if (args.workload == "doc_edits") {
      treebench::RunDocEdits(report);
    } else if (args.workload == "enumerate") {
      treebench::RunEnumerate(report);
    } else if (args.workload == "register") {
      treebench::RunRegister(report);
    } else if (args.workload == "serve") {
      treebench::RunServe(report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "treebench: %s\n", e.what());
    return 1;
  }

  if (treebench::kTraced) {
    for (const auto& t : treebench::Tracer::Finish(trace_out)) {
      report.Figure("self_ms." + t.name, t.self_ms, "ms");
      report.Figure("calls." + t.name, static_cast<double>(t.calls), "count");
    }
  }
  report.Print(treebench::kTraced);
  return 0;
}
