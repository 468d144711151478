// hedc-e2e: end-to-end benchmark of the HEDC stack over real HTTP sockets.
//
//   hedc_e2e --workload browse|progressive --seed N --seconds S
//            --trace 0|1 [--smoke] [--state-dir DIR] [--commit ID]
//
// Prints a metadata line and then, as the last line, one JSON object with
// the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer metrics of a traced run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "client.h"

int main(int argc, char** argv) {
  hedc::e2e::RunOptions options;
  options.state_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      have_workload = hedc::e2e::ParseWorkload(value, &options.workload);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--state-dir") {
      options.state_dir = value;
    } else if (arg == "--commit") {
      options.commit = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: hedc_e2e --workload browse|progressive "
                 "--seed N --seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  hedc::e2e::RunResult result;
  if (!hedc::e2e::RunWorkload(options, &result)) return 1;

  std::printf("{\"meta\":%s,\"units\":%s}\n", result.meta_json.c_str(),
              result.units_json.c_str());
  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" +
               hedc::e2e::JsonNumber(value) + ",\"unit\":\"" +
               result.units.at(name) + "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  return 0;
}
