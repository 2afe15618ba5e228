#include "workloads.h"

#include <atomic>
#include <charconv>
#include <random>
#include <thread>

#include "app/kv_service.h"
#include "app/kv_store.h"
#include "client/bench_runner.h"
#include "common/bytes.h"
#include "proto/http_codec.h"
#include "proto/http_parser.h"
#include "proto/rpc_codec.h"
#include "rubbos/app_logic.h"
#include "rubbos/app_rpc.h"
#include "rubbos/db_server.h"
#include "rubbos/system.h"

namespace perfbench {
namespace {

using hynet::ServerCounters;

// Every workload cycles through this many pre-generated requests.
constexpr size_t kOpsPerSeed = 1 << 16;
// Replays time at most this many ops per pass.
constexpr size_t kReplayOps = 4096;

// Repeats `pass` (which handles `ops` operations and returns the
// nanoseconds it spent on them) until 50 ms of timed work has accumulated;
// returns nanoseconds per operation.
template <typename Pass>
double NsPerOp(size_t ops, Pass&& pass) {
  if (ops == 0) return 0;
  int64_t spent = 0;
  size_t done = 0;
  while (spent < 50'000'000) {
    spent += pass();
    done += ops;
  }
  return static_cast<double>(spent) / static_cast<double>(done);
}

// ---- Handler decorators (handed to CreateServer) ----

uint64_t TraceIdOf(const hynet::HttpRequest& req) {
  const std::string_view v = req.Header("X-Trace-Id");
  uint64_t id = 0;
  std::from_chars(v.data(), v.data() + v.size(), id);
  return id;
}

void RecordHandlerSpan(Tracer* tracer, const char* name, uint64_t trace,
                       int64_t start, int64_t end) {
  tracer->Record({name, (trace << 1) | 1, trace << 1, trace, start, end});
}

// ---- Replays through proto/ ----

double HttpParseNs(const std::vector<Op>& ops) {
  std::string wire;
  const size_t n = std::min(ops.size(), kReplayOps);
  for (size_t i = 0; i < n; ++i) wire += ops[i].bytes;
  return NsPerOp(n, [&] {
    hynet::ByteBuffer in;
    in.Append(wire);
    hynet::HttpRequestParser parser;
    const int64_t t0 = NowNs();
    size_t parsed = 0;
    while (parser.Parse(in) == hynet::ParseStatus::kComplete) ++parsed;
    const int64_t t1 = NowNs();
    if (parsed != n) throw std::runtime_error("http replay: parse failed");
    return t1 - t0;
  });
}

// Serializes one response per op, each carrying `body_len(op)` bytes the
// way the server does (shared body, zero-copy payload).
template <typename BodyLen>
double HttpSerializeNs(const std::vector<Op>& ops, BodyLen body_len) {
  const size_t n = std::min(ops.size(), kReplayOps);
  std::map<size_t, std::shared_ptr<const std::string>> bodies;
  std::vector<std::shared_ptr<const std::string>> per_op;
  for (size_t i = 0; i < n; ++i) {
    auto& b = bodies[body_len(ops[i])];
    if (!b) b = std::make_shared<const std::string>(body_len(ops[i]), 'x');
    per_op.push_back(b);
  }
  size_t bytes = 0;  // consumed below so the work cannot be optimized away
  const double ns = NsPerOp(n, [&] {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      hynet::HttpResponse resp;
      resp.shared_body = per_op[i];
      resp.SetHeader("Content-Type", "application/octet-stream");
      bytes += hynet::SerializeResponsePayload(resp).size();
    }
    return NowNs() - t0;
  });
  if (bytes == 0) throw std::runtime_error("http replay: nothing serialized");
  return ns;
}

double RpcParseNs(const std::vector<Op>& ops) {
  std::string wire;
  const size_t n = std::min(ops.size(), kReplayOps);
  for (size_t i = 0; i < n; ++i) {
    wire += hynet::EncodeRpcRequest(i + 1, ops[i].method, ops[i].bytes);
  }
  return NsPerOp(n, [&] {
    hynet::ByteBuffer in;
    in.Append(wire);
    hynet::RpcFrameParser parser;
    const int64_t t0 = NowNs();
    size_t parsed = 0;
    while (parser.Parse(in) == hynet::ParseStatus::kComplete) ++parsed;
    const int64_t t1 = NowNs();
    if (parsed != n) throw std::runtime_error("rpc replay: parse failed");
    return t1 - t0;
  });
}

// Serializes one RPC response per op: a shared body of `shared_len(op)`
// bytes plus the op's expected literal payload as the dynamic tail.
template <typename SharedLen>
double RpcSerializeNs(const std::vector<Op>& ops, SharedLen shared_len) {
  const size_t n = std::min(ops.size(), kReplayOps);
  std::map<size_t, std::shared_ptr<const std::string>> bodies;
  std::vector<std::shared_ptr<const std::string>> per_op;
  for (size_t i = 0; i < n; ++i) {
    const size_t len = shared_len(ops[i]);
    auto& b = bodies[len];
    if (!b && len > 0) b = std::make_shared<const std::string>(len, 'v');
    per_op.push_back(b);
  }
  size_t bytes = 0;  // consumed below so the work cannot be optimized away
  const double ns = NsPerOp(n, [&] {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      bytes += hynet::SerializeRpcResponsePayload(i + 1, ops[i].method,
                                                  hynet::RpcStatus::kOk,
                                                  per_op[i], ops[i].expect_body)
                   .size();
    }
    return NowNs() - t0;
  });
  if (bytes == 0) throw std::runtime_error("rpc replay: nothing serialized");
  return ns;
}

ServerCounters Sum(std::initializer_list<ServerCounters> parts) {
  ServerCounters total;
  for (const auto& p : parts) hynet::AccumulateCounters(total, p);
  return total;
}

std::pair<uint64_t, uint64_t> PoolOf(const hynet::Server& server) {
  const hynet::MetricsSnapshot snap = server.metrics().Scrape();
  return {snap.CounterValue("buffer_pool_hits"),
          snap.CounterValue("buffer_pool_misses")};
}

// ======================= http_mix =======================
//
// The paper's own light/heavy scenario: HTTP/1.1 on HybridNetty over epoll,
// 90% 0.1 KB responses and 10% 100 KB responses through a 16 KB SO_SNDBUF
// and a 16 KB client receive buffer. Loads proto HTTP parsing, the net and
// runtime write path (write-spin), the core classifier and the multi-loop
// chassis; uses no io_uring, no app KV and no mesh.

constexpr size_t kLightBytes = 102;
constexpr size_t kHeavyBytes = 102400;

std::vector<Op> HttpMixOps(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution heavy(0.10);
  const std::string light_req =
      hynet::BuildGetRequest(hynet::BenchTarget(kLightBytes, 20));
  const std::string heavy_req =
      hynet::BuildGetRequest(hynet::BenchTarget(kHeavyBytes, 120));
  std::vector<Op> ops(kOpsPerSeed);
  for (Op& op : ops) {
    const bool h = heavy(rng);
    op.cls = h ? 1 : 0;
    op.bytes = h ? heavy_req : light_req;
    op.expect_len = static_cast<int64_t>(h ? kHeavyBytes : kLightBytes);
  }
  return ops;
}

class HttpMixDeployment final : public Deployment {
 public:
  explicit HttpMixDeployment(Tracer* tracer) {
    hynet::ServerConfig config;
    config.architecture = hynet::ServerArchitecture::kHybrid;
    config.event_loops = 2;
    config.worker_threads = 2;
    config.snd_buf_bytes = 16 * 1024;
    config.io_backend = "epoll";
    hynet::Handler inner = hynet::MakeBenchHandler();
    server_ = hynet::CreateServer(
        config, [inner, tracer](const hynet::HttpRequest& req,
                                hynet::HttpResponse& resp) {
          if (!tracer->on()) return inner(req, resp);
          const int64_t t0 = NowNs();
          inner(req, resp);
          const int64_t t1 = NowNs();
          const bool light = req.QueryParamInt("size", 0) ==
                             static_cast<int64_t>(kLightBytes);
          RecordHandlerSpan(tracer,
                            light ? "app.handler.http_light"
                                  : "app.handler.http_heavy",
                            TraceIdOf(req), t0, t1);
        });
    server_->Start();
  }
  uint16_t Port() const override { return server_->Port(); }
  ServerCounters Counters() const override { return server_->Snapshot(); }
  std::vector<std::pair<uint64_t, uint64_t>> TierBalance() const override {
    const ServerCounters c = server_->Snapshot();
    return {{c.requests_handled, c.responses_sent}};
  }
  std::pair<uint64_t, uint64_t> BufferPool() const override {
    return PoolOf(*server_);
  }
  std::map<std::string, double> Replay(
      const std::vector<Op>& ops) const override {
    return {{"proto.http_parse_ns", HttpParseNs(ops)},
            {"proto.http_serialize_ns",
             HttpSerializeNs(ops, [](const Op& op) {
               return static_cast<size_t>(op.expect_len);
             })}};
  }

 private:
  std::unique_ptr<hynet::Server> server_;
};

// ======================= rpc_kv =======================
//
// Binary RPC on HybridNetty with kAuto routes over the io_uring completion
// plane: 2 connections x 16 in flight, 70% Lookup / 20% Read / 10% Write,
// Zipf(0.99) keys over 512 preloaded 16 KB values; each Write burns 200 us
// and stores 64 B. Loads io (completion pump, SQE/CQE batching), proto RPC
// framing, the app KV handlers and the worker hop with marshal-back, and
// the classifier's CPU axis (Write); a 16 KB Read fits the two-write
// direct budget, so the write axis rarely fires. No HTTP parsing, no epoll
// write-spin. One loop and one worker: the worker's Write burn bounds
// throughput either way (two workers only doubled it while leaving no core
// free for the loop and the client, which made every latency figure swing
// run to run).

constexpr size_t kKvKeys = 512;
constexpr size_t kKvValueBytes = 16 * 1024;
constexpr size_t kKvWriteBytes = 64;
constexpr double kKvWriteCpuUs = 200;
// Writes land on their own key range so every Read still returns a
// preloaded value and can be checked exactly.
constexpr std::string_view kKvWritePrefix = "wkey-";

std::vector<Op> RpcKvOps(uint64_t seed) {
  hynet::Rng rng(seed);
  hynet::ZipfGenerator zipf(kKvKeys, 0.99);
  const std::string lookup_answer = "1:" + std::to_string(kKvValueBytes);
  std::vector<Op> ops(kOpsPerSeed);
  for (Op& op : ops) {
    const double u = rng.NextDouble();
    const uint64_t k = zipf.Next(rng) % kKvKeys;
    if (u < 0.70) {
      op.cls = 0;
      op.method = hynet::kKvMethodLookup;
      op.bytes = hynet::KvStore::PreloadKey(k);
      op.expect_body = lookup_answer;
    } else if (u < 0.90) {
      op.cls = 1;
      op.method = hynet::kKvMethodRead;
      op.bytes = hynet::KvStore::PreloadKey(k);
      op.expect_len = static_cast<int64_t>(kKvValueBytes);
    } else {
      op.cls = 2;
      op.method = hynet::kKvMethodWrite;
      op.bytes = hynet::EncodeKvWritePayload(
          hynet::KvStore::PreloadKey(k, kKvWritePrefix),
          std::string(kKvWriteBytes, static_cast<char>('a' + k % 26)));
      op.expect_len = 0;
    }
  }
  return ops;
}

class RpcKvDeployment final : public Deployment {
 public:
  explicit RpcKvDeployment(Tracer* tracer) {
    auto store = std::make_shared<hynet::KvStore>();
    store->Preload(kKvKeys, kKvValueBytes);
    hynet::KvServiceOptions kv;
    kv.write_cpu_us = kKvWriteCpuUs;
    const hynet::ServiceRegistry inner = hynet::MakeKvService(store, kv);
    // Decorate each method so the traced run sees handler spans that share
    // the client's request id.
    hynet::ServiceRegistry decorated;
    const std::pair<uint16_t, const char*> spans[] = {
        {hynet::kKvMethodLookup, "app.handler.lookup"},
        {hynet::kKvMethodRead, "app.handler.read"},
        {hynet::kKvMethodWrite, "app.handler.write"}};
    for (const auto& [id, span] : spans) {
      const hynet::ServiceRegistry::Method* m = inner.Find(id);
      hynet::ServiceHandler h = m->handler;
      decorated.Register(
          id, m->name,
          [h, tracer, span = span](hynet::ServiceRequest req,
                                   hynet::ResponseWriter w) {
            if (!tracer->on()) return h(std::move(req), std::move(w));
            const uint64_t trace = req.request_id;
            const int64_t t0 = NowNs();
            h(std::move(req), std::move(w));
            RecordHandlerSpan(tracer, span, trace, t0, NowNs());
          });
    }
    hynet::ServerConfig config;
    config.architecture = hynet::ServerArchitecture::kHybrid;
    config.protocol = "rpc";
    config.event_loops = 1;
    config.worker_threads = 1;
    config.snd_buf_bytes = 16 * 1024;
    config.io_backend = "uring";
    config.uring_mode = "completion";
    server_ = hynet::CreateServer(config, decorated);
    server_->Start();
  }
  uint16_t Port() const override { return server_->Port(); }
  ServerCounters Counters() const override { return server_->Snapshot(); }
  std::vector<std::pair<uint64_t, uint64_t>> TierBalance() const override {
    const ServerCounters c = server_->Snapshot();
    return {{c.requests_handled, c.responses_sent}};
  }
  std::pair<uint64_t, uint64_t> BufferPool() const override {
    return PoolOf(*server_);
  }
  std::map<std::string, double> Replay(
      const std::vector<Op>& ops) const override {
    std::map<std::string, double> out;
    out["proto.rpc_parse_ns"] = RpcParseNs(ops);
    out["proto.rpc_serialize_ns"] = RpcSerializeNs(ops, [](const Op& op) {
      return op.method == hynet::kKvMethodRead ? kKvValueBytes : size_t{0};
    });
    // KV store replay: the ops' gets and puts against a fresh preloaded
    // store, timed per call.
    hynet::KvStore store;
    store.Preload(kKvKeys, kKvValueBytes);
    const size_t n = std::min(ops.size(), kReplayOps);
    size_t gets = 0, puts = 0;
    for (size_t i = 0; i < n; ++i) {
      (ops[i].method == hynet::kKvMethodWrite ? puts : gets)++;
    }
    size_t found = 0;
    out["app.kv_get_ns"] = NsPerOp(gets, [&] {
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        if (ops[i].method == hynet::kKvMethodWrite) continue;
        found += store.Get(ops[i].bytes) != nullptr;
      }
      return NowNs() - t0;
    });
    out["app.kv_put_ns"] = NsPerOp(puts, [&] {
      int64_t spent = 0;
      for (size_t i = 0; i < n; ++i) {
        if (ops[i].method != hynet::kKvMethodWrite) continue;
        std::string_view key, value;
        hynet::DecodeKvWritePayload(ops[i].bytes, &key, &value);
        std::string copy(value);
        const int64_t t0 = NowNs();
        store.Put(key, std::move(copy));
        spent += NowNs() - t0;
      }
      return spent;
    });
    if (found == 0) throw std::runtime_error("kv replay: no key found");
    return out;
  }

 private:
  std::unique_ptr<hynet::Server> server_;
};

// ======================= mesh_rubbos =======================
//
// The 3-tier RUBBoS system on the async mesh (transport "rpc", fan-out 2,
// app response cache with a 200 ms TTL), driven by 4 users with zero think
// time over the RUBBoS stationary interaction mix (a closed loop). Loads
// the mesh (channels, fan-out/fan-in, singleflight cache) and the rubbos
// app/db logic across three hops; almost no write-spin and no io_uring.

constexpr int kMeshFanout = 2;
constexpr int kMeshUsers = 4;

bool LightInteraction(const hynet::rubbos::Interaction& ix) {
  return ix.q_search == 0 && ix.q_insert == 0;
}

std::vector<Op> MeshOps(uint64_t seed) {
  using hynet::rubbos::kInteractions;
  std::mt19937_64 rng(seed);
  std::vector<double> weights;
  for (const auto& ix : kInteractions) weights.push_back(ix.weight);
  std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
  std::uniform_int_distribution<int> story(0, 199), page(0, 9);
  std::uniform_int_distribution<int> user(0, kMeshUsers - 1);
  std::vector<Op> ops(kOpsPerSeed);
  for (Op& op : ops) {
    const size_t ix = pick(rng);
    op.cls = LightInteraction(kInteractions[ix]) ? 0 : 1;
    op.bytes = hynet::BuildGetRequest(
        hynet::rubbos::InteractionTarget(ix, story(rng), user(rng), page(rng)));
  }
  return ops;
}

// Decodes the interaction a page request names (replay helper).
hynet::rubbos::RenderParams ParamsOf(const Op& op) {
  const size_t start = op.bytes.find(' ') + 1;
  const std::string_view target(op.bytes.data() + start,
                                op.bytes.find(' ', start) - start);
  hynet::HttpRequest req;
  hynet::ParseRequestTarget(target, &req);
  hynet::rubbos::RenderParams p;
  p.index = hynet::rubbos::InteractionIndex(req.QueryParam("type"));
  p.story = static_cast<int>(req.QueryParamInt("s", 0));
  p.user = static_cast<int>(req.QueryParamInt("u", 0));
  p.page = static_cast<int>(req.QueryParamInt("page", 0));
  p.frags = kMeshFanout;
  return p;
}

class MeshDeployment final : public Deployment {
 public:
  explicit MeshDeployment(Tracer*) {
    hynet::rubbos::ThreeTierConfig config;
    config.transport = "rpc";
    config.fanout = kMeshFanout;
    config.app_cache_ttl_ms = 200;
    // One loop per tier and per mesh client: with the default two, the
    // three tiers' threads outnumber the cores and throughput and CPU per
    // page moved by ~15% between runs with where the scheduler put them.
    config.mesh_loops = 1;
    config.app_event_loops = 1;
    config.db_event_loops = 1;
    system_ = std::make_unique<hynet::rubbos::ThreeTierSystem>(config);
    system_->Start();
  }
  ~MeshDeployment() override { StopProbes(); }
  uint16_t Port() const override { return system_->FrontPort(); }
  ServerCounters Counters() const override {
    return Sum({system_->WebSnapshot(), system_->AppSnapshot(),
                system_->DbSnapshot()});
  }
  std::vector<std::pair<uint64_t, uint64_t>> TierBalance() const override {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const ServerCounters& c :
         {system_->WebSnapshot(), system_->AppSnapshot(),
          system_->DbSnapshot()}) {
      out.emplace_back(c.requests_handled, c.responses_sent);
    }
    return out;
  }

  // A benchmark-owned MeshClient renders one fragment on the app tier
  // ("mesh.render"), and one story query goes to the DB tier through the
  // app tier's DB client ("mesh.db_query"), every 5 ms.
  bool HasProbes() const override { return true; }
  void StartProbes(Tracer* tracer, uint64_t seed) override {
    hynet::MeshClientConfig mc;
    mc.server = hynet::InetAddr::Loopback(system_->AppPort());
    probe_client_ = std::make_unique<hynet::MeshClient>(mc);
    probe_client_->Start();
    probing_ = true;
    probe_thread_ = std::thread([this, tracer, seed] {
      using hynet::rubbos::kInteractions;
      std::mt19937_64 rng(seed ^ 0x5eed);
      std::vector<size_t> light;
      for (size_t i = 0; i < kInteractions.size(); ++i) {
        if (LightInteraction(kInteractions[i])) light.push_back(i);
      }
      uint64_t trace = uint64_t{1} << 40;  // apart from the driver's ids
      hynet::RpcCallOptions opts;
      opts.idempotent = true;
      while (probing_.load()) {
        hynet::rubbos::RenderParams p;
        p.index = light[rng() % light.size()];
        p.story = static_cast<int>(rng() % 200);
        p.user = static_cast<int>(rng() % kMeshUsers);
        p.page = static_cast<int>(rng() % 10);
        p.frags = kMeshFanout;
        int64_t t0 = NowNs();
        hynet::RpcCallResult r = probe_client_->CallSync(
            hynet::rubbos::kAppMethodRender,
            hynet::rubbos::EncodeRenderPayload(p), opts);
        tracer->Record({"mesh.render", ++trace << 1, 0, trace, t0, NowNs()});
        probe_failures_ += r.status != hynet::RpcStatus::kOk;
        t0 = NowNs();
        r = system_->db_mesh()->CallSync(
            hynet::rubbos::kDbMethodQuery,
            "/q/story_detail?id=" + std::to_string(p.story), opts);
        tracer->Record({"mesh.db_query", ++trace << 1, 0, trace, t0, NowNs()});
        probe_failures_ += r.status != hynet::RpcStatus::kOk;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  uint64_t StopProbes() override {
    probing_ = false;
    if (probe_thread_.joinable()) probe_thread_.join();
    if (probe_client_) probe_client_->Stop();
    probe_client_.reset();
    return probe_failures_;
  }

  std::map<std::string, double> Replay(
      const std::vector<Op>& ops) const override {
    using hynet::rubbos::kInteractions;
    std::vector<Op> fragments;  // the Render calls the web tier would issue
    const size_t n = std::min(ops.size(), kReplayOps);
    for (size_t i = 0; i < n; ++i) {
      hynet::rubbos::RenderParams p = ParamsOf(ops[i]);
      Op f;
      f.method = hynet::rubbos::kAppMethodRender;
      f.cls = static_cast<int>(p.index);
      f.bytes = hynet::rubbos::EncodeRenderPayload(p);
      fragments.push_back(std::move(f));
    }
    return {{"proto.http_parse_ns", HttpParseNs(ops)},
            {"proto.http_serialize_ns",
             HttpSerializeNs(ops,
                             [](const Op& op) {
                               return kInteractions[ParamsOf(op).index]
                                   .html_bytes;
                             })},
            {"proto.rpc_parse_ns", RpcParseNs(fragments)},
            {"proto.rpc_serialize_ns",
             RpcSerializeNs(fragments, [](const Op& f) {
               return kInteractions[static_cast<size_t>(f.cls)].html_bytes /
                      kMeshFanout;
             })}};
  }

 private:
  std::unique_ptr<hynet::rubbos::ThreeTierSystem> system_;
  std::unique_ptr<hynet::MeshClient> probe_client_;
  std::atomic<bool> probing_{false};
  uint64_t probe_failures_ = 0;  // probe thread only, read after join
  std::thread probe_thread_;
};

template <typename D>
std::unique_ptr<Deployment> Deploy(Tracer* tracer) {
  return std::make_unique<D>(tracer);
}

// The open-loop rates are absolute: 21-40% of the closed-loop throughput
// measured on a 4-vCPU x86-64 VM. They are not re-derived per run: a rate
// search does not repeat within the bounds. Each workload's `why` in
// BENCHMARK.json names its rate; run.py checks that the two agree.
const Workload kWorkloads[] = {
    {"http_mix", Wire::kHttp, 4, 1, 16 * 1024, 15000, {"light", "heavy"},
     &HttpMixOps, &Deploy<HttpMixDeployment>},
    {"rpc_kv", Wire::kRpc, 2, 16, 16 * 1024, 20000,
     {"lookup", "read", "write"}, &RpcKvOps, &Deploy<RpcKvDeployment>},
    {"mesh_rubbos", Wire::kHttp, kMeshUsers, 1, 0, 3000, {"light", "heavy"},
     &MeshOps, &Deploy<MeshDeployment>},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

}  // namespace perfbench
