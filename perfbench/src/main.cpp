// opwat_perfbench: one run of one benchmark workload.
//
//   opwat_perfbench --workload W --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Prints a human-readable account of the run, then, as the last line of
// standard output, the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  perfbench/run.py builds this binary and is the
// benchmark's entry point.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload study|query_direct --seed N"
               " --seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value{argv[++i]};
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage(argv[0]);
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload.empty() || opt.out_dir.empty() || !have_trace || opt.seconds <= 0)
    return usage(argv[0]);
  std::filesystem::create_directories(opt.out_dir);

  perfbench::report rep;
  try {
    int rc = 0;
    if (opt.workload == "study") {
      rc = perfbench::run_study(opt, rep);
    } else if (opt.workload == "query_direct") {
      rc = perfbench::run_query_direct(opt, rep);
    } else {
      return usage(argv[0]);
    }
    if (rc != 0) return rc;
  } catch (const std::exception& e) {
    std::cerr << "benchmark run failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << rep.json() << std::endl;
  return 0;
}
