// The three workloads of the repository benchmark. Each one makes its
// request list from the seed and deploys a fresh copy of the program under
// test. The comment above each definition in workloads.cc says why the
// workload is there: the layers it loads and the ones it leaves idle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver.h"
#include "servers/server.h"
#include "trace.h"

namespace perfbench {

// One running copy of the system under test (one server, or the three
// RUBBoS tiers). Destroying it stops every thread it started.
class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual uint16_t Port() const = 0;
  // Counters summed over every server of the deployment.
  virtual hynet::ServerCounters Counters() const = 0;
  // Per-tier {requests_handled, responses_sent}, read when idle.
  virtual std::vector<std::pair<uint64_t, uint64_t>> TierBalance() const = 0;
  // buffer_pool_{hits,misses} from the servers' metrics registries.
  virtual std::pair<uint64_t, uint64_t> BufferPool() const { return {0, 0}; }
  // Traced run only: benchmark-owned probes into the deployment's layers,
  // recorded as spans while they run. Returns failed probe calls on Stop.
  virtual bool HasProbes() const { return false; }
  virtual void StartProbes(Tracer*, uint64_t) {}
  virtual uint64_t StopProbes() { return 0; }
  // Replays of the workload's own bytes through single layers (proto/,
  // app/), in nanoseconds per operation, keyed by metric name.
  virtual std::map<std::string, double> Replay(
      const std::vector<Op>& ops) const = 0;
};

struct Workload {
  const char* name;
  Wire wire;
  int connections;
  int depth;           // requests in flight per connection
  int rcv_buf_bytes;   // client SO_RCVBUF, 0 = kernel default
  double open_rate;    // open-loop offered rate, requests/s (absolute)
  // Request classes. Class 0 is the light one: its p99 is core.light_p99_ms.
  std::vector<const char*> classes;
  std::vector<Op> (*make_ops)(uint64_t seed);
  // `tracer` receives handler spans from decorators passed to
  // CreateServer; a disabled tracer costs one relaxed load per request.
  std::unique_ptr<Deployment> (*deploy)(Tracer* tracer);
};

// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

}  // namespace perfbench
