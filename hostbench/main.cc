// Host wall-clock benchmark.
//
//   hostbench --workload <zoo_infer|showcase_stream|serve_burst|deploy_warm>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints a human-readable report on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A side report with machine facts and sample counts goes to
// <work-dir>/<workload>.result.json. Results are written before teardown.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "support/thread_pool.h"
#include "workloads.h"

namespace {

using hostbench::Options;
using hostbench::Report;

/// Pool workers (see main()).
constexpr int kPoolThreads = 1;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string ResultJson(const Report& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": " << JsonNumber(metric.first)
        << ", \"unit\": " << JsonString(metric.second) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string SideReport(const Options& options, const Report& report, const std::string& result) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(options.workload) << ", \"seed\": " << options.seed
      << ", \"seconds\": " << JsonNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"machine\": {";
  bool first = true;
  for (const auto& [key, value] : hostbench::MachineFacts()) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  out << ", \"pool_threads\": "
      << JsonString(std::to_string(tnp::support::ThreadPool::Global().num_threads()))
      << "}, \"notes\": {";
  first = true;
  for (const auto& [key, value] : report.notes) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  out << "}, \"result\": " << result << "}\n";
  return out.str();
}

int Usage() {
  std::cerr << "usage: hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.work_dir.empty() || options.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(options.work_dir);

  // A single pool worker, fixed before anything touches the pool. On a
  // shared host a fan-out over every core stalls whenever one core is taken
  // away, so one descheduled thread moved the figures by up to 3x; with one
  // worker (ParallelFor runs inline) the figures track the program's work.
  tnp::support::ThreadPool::Configure(kPoolThreads);

  Report report;
  if (options.workload == "zoo_infer") {
    report = hostbench::RunZooInfer(options);
  } else if (options.workload == "showcase_stream") {
    report = hostbench::RunShowcaseStream(options);
  } else if (options.workload == "serve_burst") {
    report = hostbench::RunServeBurst(options);
  } else if (options.workload == "deploy_warm") {
    report = hostbench::RunDeployWarm(options);
  } else {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }

  const std::string result = ResultJson(report);
  for (const auto& [name, metric] : report.metrics) {
    std::cerr << "  " << name << " = " << JsonNumber(metric.first) << " " << metric.second << "\n";
  }
  for (const auto& [key, value] : report.notes) std::cerr << "  # " << key << ": " << value << "\n";
  std::ofstream(options.work_dir + "/" + options.workload + ".result.json")
      << SideReport(options, report, result);
  std::cout << result << std::endl;
  return 0;
}
