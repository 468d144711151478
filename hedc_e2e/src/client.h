// The benchmark's client process: forks the server, measures set-up, drives
// one workload over keep-alive loopback connections, checks every answer,
// and turns client samples plus server counter snapshots into metrics.
#ifndef HEDC_E2E_CLIENT_H_
#define HEDC_E2E_CLIENT_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace hedc::e2e {

struct RunOptions {
  Workload workload = Workload::kBrowse;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string state_dir;
  std::string commit = "unknown";  // recorded in the metadata
};

struct RunResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  NumberMap metrics;  // end-to-end, or per-layer when traced
  std::map<std::string, std::string> units;  // unit of each metric
  std::string units_json;                    // the same, as JSON
  std::string meta_json;          // run metadata object
};

// Returns false (with a message on stderr) when the run could not be made
// at all: the server did not start or a process failed.
bool RunWorkload(const RunOptions& options, RunResult* result);

}  // namespace hedc::e2e

#endif  // HEDC_E2E_CLIENT_H_
