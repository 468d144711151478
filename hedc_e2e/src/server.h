// The benchmark's server process: the full HEDC stack with the default
// configuration, served over HTTP on the reactor, plus the benchmark's
// own instrumentation (a Dispatch timer, an Archive decorator, routine
// decorators and a committer wrapper), all in set-up code.
//
// The server talks to the client process over two pipes. It first writes
//   READY <port>\n
//   HLES <hle_id>:<unit_id> ...\n
// and then answers line commands:
//   snap            -> record a counter snapshot, reply "ok"
//   slices <ms>     -> toggle tracing every <ms>, snapshotting at each
//                      toggle, until "endslices"; reply "ok"
//   endslices       -> stop toggling (tracing off), reply "ok"
//   report          -> one line: {"setup":{...},"snapshots":[...]}
//   quit            -> stop serving and exit
#ifndef HEDC_E2E_SERVER_H_
#define HEDC_E2E_SERVER_H_

#include <string>

#include "common.h"

namespace hedc::e2e {

struct ServerArgs {
  Plan plan;
  uint64_t seed = 1;
  std::string state_dir;  // WAL lives here
  int command_fd = -1;
  int reply_fd = -1;
};

// Runs in the forked child; returns the process exit code.
int RunServer(const ServerArgs& args);

}  // namespace hedc::e2e

#endif  // HEDC_E2E_SERVER_H_
