#include "driver.h"

#include <sys/epoll.h>
#include <time.h>

#include <algorithm>
#include <deque>
#include <random>
#include <system_error>
#include <unordered_map>

#include "common/bytes.h"
#include "common/fd.h"
#include "net/socket.h"
#include "proto/http_parser.h"
#include "proto/rpc_codec.h"

namespace perfbench {
namespace {

constexpr int64_t kDrainTimeoutNs = 10'000'000'000;

double ThreadCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

std::vector<double> PhaseResult::AllLatency() const {
  std::vector<double> all;
  for (const auto& cls : latency) all.insert(all.end(), cls.begin(), cls.end());
  return all;
}

struct Driver::Conn {
  hynet::ScopedFd fd;
  hynet::ByteBuffer in;
  hynet::HttpResponseParser http;
  hynet::RpcFrameParser rpc;
  std::string out;
  size_t out_off = 0;
  bool want_out = false;
  bool dead = false;
  std::unordered_map<uint64_t, Pending> inflight;
  std::deque<uint64_t> order;  // HTTP: responses come back in this order
};

Driver::Driver(DriverConfig config, const std::vector<Op>* ops, int classes)
    : config_(config), ops_(ops), classes_(classes) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll");
  }
  for (int i = 0; i < config_.connections; ++i) {
    auto c = std::make_unique<Conn>();
    hynet::Socket sock = hynet::Socket::CreateTcp(/*nonblocking=*/false);
    if (config_.rcv_buf_bytes > 0) {
      sock.SetRecvBufferSize(config_.rcv_buf_bytes);
    }
    sock.Connect(config_.server);
    sock.SetNonBlocking(true);
    sock.SetNoDelay(true);
    c->fd = sock.TakeFd();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c.get();
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, c->fd.get(), &ev) != 0) {
      throw std::system_error(errno, std::generic_category(), "epoll_ctl");
    }
    conns_.push_back(std::move(c));
  }
}

Driver::~Driver() {
  if (epfd_ >= 0) ::close(epfd_);
}

PhaseResult Driver::Run(double seconds, double open_rate) {
  PhaseResult r;
  r.seconds = seconds;
  r.latency.resize(static_cast<size_t>(classes_));
  if (broken_) return r;
  const double cpu0 = ThreadCpuSec();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const bool open = open_rate > 0;
  std::mt19937_64 rng(config_.seed * 0x9E3779B97F4A7C15ull + next_id_);
  std::exponential_distribution<double> gap(open ? open_rate / 1e9 : 1.0);
  const auto new_pending = [&](int64_t due) {
    ++r.attempted;
    return Pending{next_id_++, next_op_++ % ops_->size(), due, 0};
  };

  window_open_ = true;
  closed_loop_ = !open;
  if (!open) {
    for (auto& c : conns_) {
      for (int d = 0; d < config_.depth; ++d) {
        Issue(*c, new_pending(NowNs()), r);
      }
    }
  }
  int64_t next_arrival = start + static_cast<int64_t>(gap(rng));
  epoll_event events[16];
  while (true) {
    const int64_t now = NowNs();
    if (window_open_ && now >= end) window_open_ = false;
    if (open && window_open_) {
      while (next_arrival <= now && next_arrival < end) {
        ++r.arrivals;
        r.max_lag_ms = std::max(r.max_lag_ms, (now - next_arrival) / 1e6);
        const Pending p = new_pending(next_arrival);
        // Like a connection pool: the least-loaded live connection takes
        // the request; with every slot busy it waits its turn in backlog_.
        Conn* c = nullptr;
        for (auto& cand : conns_) {
          if (!cand->dead &&
              (!c || cand->inflight.size() < c->inflight.size())) {
            c = cand.get();
          }
        }
        if (!c) {
          ++r.failed;
        } else if (backlog_.empty() &&
                   c->inflight.size() < static_cast<size_t>(config_.depth)) {
          Issue(*c, p, r);
        } else {
          ++r.queued;
          backlog_.push_back(p);
        }
        next_arrival += std::max<int64_t>(1, static_cast<int64_t>(gap(rng)));
      }
    }
    if (!window_open_) {
      bool idle = backlog_.empty();
      for (const auto& c : conns_) idle = idle && c->inflight.empty();
      if (idle) break;
      if (now > end + kDrainTimeoutNs) {
        for (auto& c : conns_) FailConn(*c, r);
        break;
      }
    }
    int64_t wait_ns = 10'000'000;
    if (window_open_) {
      wait_ns = (open ? std::min(next_arrival, end) : end) - now;
    }
    timespec ts{wait_ns / 1'000'000'000, wait_ns % 1'000'000'000};
    const int n = epoll_pwait2(epfd_, events, 16, &ts, nullptr);
    for (int i = 0; i < n; ++i) {
      Conn& c = *static_cast<Conn*>(events[i].data.ptr);
      if (c.dead) continue;
      if (events[i].events & EPOLLOUT) Flush(c, r);
      if (!c.dead && (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
        OnReadable(c, r);
      }
    }
  }
  window_open_ = false;
  r.client_cpu_sec = ThreadCpuSec() - cpu0;
  return r;
}

void Driver::Issue(Conn& c, const Pending& pending, PhaseResult& r) {
  if (c.dead) {
    ++r.failed;
    return;
  }
  Pending p = pending;
  p.sent_ns = NowNs();
  const Op& op = (*ops_)[p.op];
  if (config_.wire == Wire::kRpc) {
    c.out += hynet::EncodeRpcRequest(p.id, op.method, op.bytes);
  } else if (config_.tracer && config_.tracer->on()) {
    // The trace id rides a header so the server-side handler span can name
    // this request as its parent.
    c.out.append(op.bytes, 0, op.bytes.size() - 2);
    c.out += "X-Trace-Id: " + std::to_string(p.id) + "\r\n\r\n";
  } else {
    c.out += op.bytes;
  }
  if (config_.wire == Wire::kHttp) c.order.push_back(p.id);
  c.inflight.emplace(p.id, p);
  Flush(c, r);
}

void Driver::Flush(Conn& c, PhaseResult& r) {
  while (c.out_off < c.out.size()) {
    const hynet::IoResult w = hynet::WriteFd(
        c.fd.get(), c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (w.WouldBlock()) break;
    if (w.Fatal()) {
      FailConn(c, r);
      return;
    }
    c.out_off += static_cast<size_t>(w.n);
  }
  const bool pending = c.out_off < c.out.size();
  if (!pending) {
    c.out.clear();
    c.out_off = 0;
  }
  if (pending != c.want_out) {
    c.want_out = pending;
    epoll_event ev{};
    ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    ev.data.ptr = &c;
    epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd.get(), &ev);
  }
}

void Driver::OnReadable(Conn& c, PhaseResult& r) {
  char buf[64 * 1024];
  while (true) {
    const hynet::IoResult rd = hynet::ReadFd(c.fd.get(), buf, sizeof(buf));
    if (rd.WouldBlock()) break;
    if (rd.Eof() || rd.Fatal()) {
      FailConn(c, r);
      return;
    }
    c.in.Append(buf, static_cast<size_t>(rd.n));
    if (static_cast<size_t>(rd.n) < sizeof(buf)) break;
  }
  while (!c.dead) {
    if (config_.wire == Wire::kHttp) {
      if (c.order.empty()) break;
      const hynet::ParseStatus st = c.http.Parse(c.in);
      if (st == hynet::ParseStatus::kNeedMore) break;
      if (st == hynet::ParseStatus::kError) {
        FailConn(c, r);
        return;
      }
      const hynet::HttpResponse& resp = c.http.response();
      const uint64_t id = c.order.front();
      c.order.pop_front();
      const Op& op = (*ops_)[c.inflight.at(id).op];
      Complete(c, id, Check(op, resp.status, resp.body.size(), nullptr), r);
    } else {
      const hynet::ParseStatus st = c.rpc.Parse(c.in);
      if (st == hynet::ParseStatus::kNeedMore) break;
      if (st == hynet::ParseStatus::kError) {
        FailConn(c, r);
        return;
      }
      const hynet::RpcFrame& f = c.rpc.frame();
      const auto it = c.inflight.find(f.header.request_id);
      if (it == c.inflight.end()) {  // an answer to nothing we asked
        FailConn(c, r);
        return;
      }
      const Op& op = (*ops_)[it->second.op];
      const bool good = Check(op, f.header.status, f.payload.size(),
                              f.payload.c_str());
      Complete(c, f.header.request_id, good, r);
    }
  }
}

bool Driver::Check(const Op& op, int status, size_t len,
                   const char* body) const {
  const int ok_status = config_.wire == Wire::kHttp
                            ? 200
                            : static_cast<int>(hynet::RpcStatus::kOk);
  if (status != ok_status) return false;
  if (op.expect_len >= 0 && len != static_cast<size_t>(op.expect_len)) {
    return false;
  }
  return op.expect_body.empty() ||
         (body && std::string_view(body, len) == op.expect_body);
}

void Driver::Complete(Conn& c, uint64_t id, bool good, PhaseResult& r) {
  const auto it = c.inflight.find(id);
  if (it == c.inflight.end()) return;
  const Pending p = it->second;
  c.inflight.erase(it);
  const int64_t now = NowNs();
  if (good) {
    ++r.ok;
    r.latency[static_cast<size_t>((*ops_)[p.op].cls)].push_back(
        static_cast<double>(now - p.due_ns));
  } else {
    ++r.failed;
  }
  if (config_.tracer) {
    config_.tracer->Record(
        {"client.request", p.id << 1, 0, p.id, p.sent_ns, now});
  }
  if (!backlog_.empty()) {
    const Pending next = backlog_.front();
    backlog_.pop_front();
    Issue(c, next, r);
  } else if (closed_loop_ && window_open_ &&
             c.inflight.size() < static_cast<size_t>(config_.depth)) {
    ++r.attempted;
    Issue(c, Pending{next_id_++, next_op_++ % ops_->size(), now, 0}, r);
  }
}

void Driver::FailConn(Conn& c, PhaseResult& r) {
  if (c.dead) return;
  c.dead = true;
  broken_ = true;
  r.failed += c.inflight.size();
  c.inflight.clear();
  c.order.clear();
  bool all_dead = true;
  for (const auto& other : conns_) all_dead = all_dead && other->dead;
  if (all_dead) {
    r.failed += backlog_.size();
    backlog_.clear();
  }
  epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd.get(), nullptr);
  c.fd.Reset();
}

}  // namespace perfbench
