// The benchmark's load driver: one generator thread, a handful of
// persistent connections, HTTP/1.1 or the binary RPC framing, closed or
// open loop. Unlike the library's RunLoad it keeps raw latency samples per
// request class (so each class has its own percentiles and no bucket
// rounding) and checks every response against what the op expects.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/inet_addr.h"
#include "trace.h"

namespace perfbench {

enum class Wire { kHttp, kRpc };

// One pre-generated request. The workload builds these from its seed; the
// program under test only ever sees their bytes.
struct Op {
  int cls = 0;              // index into the workload's class names
  uint16_t method = 0;      // RPC method id (unused on HTTP)
  std::string bytes;        // HTTP: whole request; RPC: frame payload
  int64_t expect_len = -1;  // body / payload length, -1 = not checked
  std::string expect_body;  // exact RPC payload, empty = not checked
};

struct DriverConfig {
  Wire wire = Wire::kHttp;
  hynet::InetAddr server;
  int connections = 1;
  int depth = 1;            // requests in flight per connection
  int rcv_buf_bytes = 0;    // client SO_RCVBUF, 0 = kernel default
  uint64_t seed = 1;        // open-loop arrival process
  Tracer* tracer = nullptr; // client.request spans when tracer->on()
};

struct PhaseResult {
  double seconds = 0;                        // window length
  uint64_t attempted = 0;                    // issued inside the window
  uint64_t ok = 0;                           // answered and checked good
  uint64_t failed = 0;                       // wrong answer or lost
  std::vector<std::vector<double>> latency;  // ns per class, ok only
  uint64_t arrivals = 0;                     // open loop: scheduled sends
  uint64_t queued = 0;                       // open loop: found no free slot
  double max_lag_ms = 0;                     // open loop: worst send delay
  double client_cpu_sec = 0;                 // generator thread CPU

  double Throughput() const { return seconds > 0 ? ok / seconds : 0; }
  std::vector<double> AllLatency() const;
};

class Driver {
 public:
  // Connects every connection; throws std::system_error on failure.
  Driver(DriverConfig config, const std::vector<Op>* ops, int classes);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  // Issues ops (cycling through the list) for `seconds`, then stops issuing
  // and waits for every outstanding response, so each phase ends with the
  // connections idle. open_rate > 0 sends on a Poisson schedule at that
  // aggregate rate and times each request from when it was due.
  PhaseResult Run(double seconds, double open_rate = 0);

 private:
  struct Conn;
  struct Pending {
    uint64_t id = 0;
    size_t op = 0;        // index into *ops_
    int64_t due_ns = 0;   // when the request should have been sent
    int64_t sent_ns = 0;  // when it was written
  };

  void Issue(Conn& c, const Pending& p, PhaseResult& r);
  void Flush(Conn& c, PhaseResult& r);
  void OnReadable(Conn& c, PhaseResult& r);
  void Complete(Conn& c, uint64_t id, bool good, PhaseResult& r);
  bool Check(const Op& op, int status, size_t len, const char* body) const;
  void FailConn(Conn& c, PhaseResult& r);

  DriverConfig config_;
  const std::vector<Op>* ops_;
  int classes_;
  int epfd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::deque<Pending> backlog_;  // open loop: arrivals waiting for a slot
  size_t next_op_ = 0;
  uint64_t next_id_ = 1;
  // Set once a connection died or a drain timed out; later phases would not
  // be comparable, so Run returns empty results from then on.
  bool broken_ = false;
  bool window_open_ = false;
  bool closed_loop_ = false;
};

}  // namespace perfbench
