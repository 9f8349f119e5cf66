// perfbench: runs one named workload against the in-process ONEX stack
// and prints one JSON result line (see NOTES.md).
//
//   perfbench --workload explore|scatter|ingest --seed N --seconds S
//             --trace 0|1 --work-dir DIR
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "util/logging.h"
#include "workload.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (args.seconds <= 0 || args.work_dir.empty()) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n";
    return 2;
  }
  onex::SetLogLevel(onex::LogLevel::kError);
  perfbench::WorkloadSpec spec;
  if (!perfbench::MakeWorkload(args.workload, args.seed, args.seconds,
                               &spec)) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  perfbench::Report report;
  const bool completed = perfbench::RunWorkload(spec, args, &report);
  std::cout << report.Json() << std::endl;
  return completed ? 0 : 1;
}
