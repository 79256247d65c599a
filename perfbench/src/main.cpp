// agc_perfbench — the repository benchmark's harness binary (README.md).
//
//   agc_perfbench --workload table1|scale|service --seed N --seconds S
//                 --trace 0|1 [--smoke] [--inject improper|reject]
//
// Prints progress lines, an `{"env": ...}` header, and as its last line one
// JSON record: correct, attempted, failed, the first misses, and every
// metric the workload measured.  Exit 0 iff every output check held.
// perfbench/run.py builds this binary and turns the record into the
// benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "agc_perfbench: %s\nusage: agc_perfbench --workload table1|scale|service "
               "--seed N --seconds S --trace 0|1 [--smoke] [--inject improper|reject] "
               "[--git-sha SHA] [--source-digest HEX] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--inject") {
      if (val != "improper" && val != "reject") usage("--inject takes improper or reject");
      a.inject = val;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else if (key == "--source-digest") {
      a.source_digest = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload != "table1" && a.workload != "scale" && a.workload != "service") {
    usage("--workload must be table1, scale or service");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;
  Checks checks;
  std::size_t threads = kTable1Threads;
  try {
    if (args.workload == "table1") {
      run_table1(args, report, checks);
    } else if (args.workload == "scale") {
      threads = kScaleThreads;
      run_scale(args, report, checks);
    } else {
      threads = kServiceThreads;
      run_service(args, report, checks);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agc_perfbench: %s workload aborted: %s\n",
                 args.workload.c_str(), e.what());
    return 2;
  }

  for (const std::string& miss : checks.misses()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", miss.c_str());
  }
  const bool correct = checks.failed() == 0 && checks.attempted() > 0;
  std::string out = "{\"env\":" + env_json(args, threads);
  out += std::string(",\"correct\":") + (correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(checks.attempted());
  out += ",\"failed\":" + std::to_string(checks.failed());
  out += ",\"misses\":[";
  for (std::size_t i = 0; i < checks.misses().size(); ++i) {
    if (i > 0) out += ',';
    append_string(out, checks.misses()[i]);
  }
  out += "],\"metrics\":{";
  bool comma = false;
  for (const auto& [name, vu] : report.all()) {
    if (comma) out += ',';
    comma = true;
    append_string(out, name);
    out += ":{\"value\":";
    append_number(out, vu.first);
    out += ",\"unit\":";
    append_string(out, vu.second);
    out += '}';
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
