// The repository benchmark's binary. perfbench/run.py builds it and runs
//
//   perfbench_driver --workload <triage_cold|serve_campaign|serve_fresh>
//                    --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// from the repository root. It self-tests its statistics, runs the
// workload, checks the outputs, and prints a human-readable report ("#"
// lines) followed by one JSON line: {"correct","attempted","failed",
// "metrics"}. End-to-end metrics come from the untraced run (--trace 0),
// per-layer metrics from the traced run (--trace 1). A failed output check
// still prints its result but exits 1; a run that could not be measured
// exits 2 without a result.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <triage_cold|serve_campaign|"
               "serve_fresh> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n"
               "       perfbench_driver --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") return run_self_tests() == 0 ? 0 : 1;
    if (a == "--probe-setup") return probe_setup_main();
    if (!has_value) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();
  if (run_self_tests() != 0) {
    std::fprintf(stderr, "perfbench: statistics self-test failed\n");
    return 2;
  }

  RunResult result;
  try {
    if (args.workload == "triage_cold") {
      run_triage(args, result);
    } else if (args.workload == "serve_campaign") {
      run_serve(args, false, result);
    } else if (args.workload == "serve_fresh") {
      run_serve(args, true, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  emit(args, result);
  return result.correct ? 0 : 1;
}
