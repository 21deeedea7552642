#include "src/runtime/real_env.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>

#include "src/util/logging.h"

namespace sdr {

namespace {

int64_t NowMonotonicUs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

int64_t NowRealtimeUs() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

uint32_t LoadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void AppendU32Le(Bytes& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

}  // namespace

RealEnv::RealEnv(Options options)
    : options_(std::move(options)), rng_(options_.rng_seed) {
  // Anchor the clock: Now() advances with CLOCK_MONOTONIC but counts from
  // the configured realtime epoch, sampled exactly once so later NTP steps
  // cannot move deadlines.
  int64_t mono = NowMonotonicUs();
  if (options_.epoch_realtime_us > 0) {
    mono_epoch_us_ = mono - (NowRealtimeUs() - options_.epoch_realtime_us);
  } else {
    mono_epoch_us_ = mono;
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
  if (epoll_fd_ >= 0 && wake_pipe_[0] >= 0) {
    EpollCtl(EPOLL_CTL_ADD, wake_pipe_[0], EPOLLIN);
  }
  SetupListener();
}

RealEnv::~RealEnv() { CloseAll(); }

void RealEnv::CloseAll() {
  for (auto& [id, peer] : peers_) {
    if (peer.fd >= 0) {
      close(peer.fd);
      peer.fd = -1;
    }
  }
  for (auto& [fd, conn] : inbound_) {
    close(fd);
  }
  inbound_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_pipe_[0] >= 0) {
    close(wake_pipe_[0]);
    close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void RealEnv::SetupListener() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    SDR_LOG(kError) << "realenv: socket(): " << strerror(errno);
    return;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.listen_port);
  if (inet_pton(AF_INET, options_.listen_host.c_str(), &addr.sin_addr) != 1) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0) {
    SDR_LOG(kError) << "realenv: bind/listen " << options_.listen_host << ":"
                    << options_.listen_port << ": " << strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  EpollCtl(EPOLL_CTL_ADD, listen_fd_, EPOLLIN);
}

void RealEnv::Attach(Node* node, NodeId id) {
  node_ = node;
  self_ = id;
  BindNode(node, id, this);
}

void RealEnv::AddPeer(NodeId id, const std::string& host, uint16_t port) {
  Peer peer;
  peer.id = id;
  peer.host = host;
  peer.port = port;
  peers_[id] = std::move(peer);
}

SimTime RealEnv::Now() const { return NowMonotonicUs() - mono_epoch_us_; }

EventId RealEnv::ScheduleAt(SimTime t, InlineFunction<void()> fn) {
  // Inside the timer sweep a past deadline clamps to the sweep's clock
  // reading, so the timer fires in that sweep after those already due, as
  // a past event joins the simulator's current instant.
  return timers_.Push(std::max(t, sweeping_ ? sweep_now_ : Now()),
                      std::move(fn));
}

void RealEnv::Cancel(EventId id) { timers_.Cancel(id); }

SimTime RealEnv::ReconnectDelay(int attempt, SimTime initial, SimTime max) {
  if (attempt < 0) {
    attempt = 0;
  }
  // Shift saturates well before overflow: 63 - attempt bits of headroom.
  if (attempt >= 32 || (initial << attempt) >= max || initial >= max) {
    return max;
  }
  return initial << attempt;
}

void RealEnv::Send(NodeId to, Payload payload) {
  ++messages_sent_;
  bytes_sent_ += payload.size();
  auto it = peers_.find(to);
  if (it == peers_.end() || it->second.fd < 0) {
    // Unknown or currently unreachable peer: best-effort drop, exactly like
    // a partitioned/down node in the simulator.
    ++messages_dropped_;
    return;
  }
  Peer& peer = it->second;
  if (payload.size() > options_.max_frame_bytes) {
    ++messages_dropped_;
    return;
  }
  AppendU32Le(peer.out, static_cast<uint32_t>(payload.size()));
  AppendU32Le(peer.out, self_);
  peer.out.insert(peer.out.end(), payload.data(),
                  payload.data() + payload.size());
  if (!peer.connecting) {
    // While a non-blocking connect is in flight the frame just buffers;
    // the EPOLLOUT completion flushes it.
    FlushPeer(peer);
  }
}

void RealEnv::FlushPeer(Peer& peer) {
  while (peer.out_off < peer.out.size()) {
    ++send_calls_;
    ssize_t n = ::send(peer.fd, peer.out.data() + peer.out_off,
                       peer.out.size() - peer.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      peer.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // kernel buffer full; EPOLLOUT resumes us
    }
    // Hard error: tear down and redial. Buffered frames are lost (best
    // effort); the protocol's retransmit timers recover.
    OnDialResult(peer, false);
    return;
  }
  if (peer.out_off == peer.out.size()) {
    peer.out.clear();
    peer.out_off = 0;
  } else if (peer.out_off > (64u << 10)) {
    peer.out.erase(peer.out.begin(),
                   peer.out.begin() + static_cast<ptrdiff_t>(peer.out_off));
    peer.out_off = 0;
  }
  UpdateEpollOut(peer);
}

void RealEnv::EpollCtl(int op, int fd, uint32_t events) {
  ++epoll_ctl_calls_;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, op, fd, &ev);
}

void RealEnv::UpdateEpollOut(Peer& peer) {
  const bool want = peer.connecting || peer.out_off < peer.out.size();
  if (peer.fd < 0 || want == peer.epoll_out) {
    return;
  }
  EpollCtl(EPOLL_CTL_MOD, peer.fd,
           EPOLLIN | (want ? static_cast<uint32_t>(EPOLLOUT) : 0u));
  peer.epoll_out = want;
}

void RealEnv::DialPeer(Peer& peer) {
  peer.redial_timer = 0;
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ScheduleRedial(peer);
    return;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    ScheduleRedial(peer);
    return;
  }
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  peer.fd = fd;
  peer.connecting = (rc != 0 && errno == EINPROGRESS);
  if (rc != 0 && !peer.connecting) {
    close(fd);
    peer.fd = -1;
    ScheduleRedial(peer);
    return;
  }
  EpollCtl(EPOLL_CTL_ADD, fd,
           EPOLLIN | (peer.connecting ? static_cast<uint32_t>(EPOLLOUT) : 0u));
  peer.epoll_out = peer.connecting;
  if (!peer.connecting) {
    OnDialResult(peer, true);
  }
}

void RealEnv::OnDialResult(Peer& peer, bool ok) {
  if (ok) {
    peer.connecting = false;
    peer.attempts = 0;
    FlushPeer(peer);  // drain anything buffered while connecting
    return;
  }
  if (peer.fd >= 0) {
    EpollCtl(EPOLL_CTL_DEL, peer.fd, 0);
    close(peer.fd);
    peer.fd = -1;
  }
  peer.connecting = false;
  peer.epoll_out = false;
  peer.out.clear();
  peer.out_off = 0;
  ScheduleRedial(peer);
}

void RealEnv::ScheduleRedial(Peer& peer) {
  if (peer.redial_timer != 0) {
    return;
  }
  SimTime delay = ReconnectDelay(peer.attempts, options_.reconnect_initial,
                                 options_.reconnect_max);
  ++peer.attempts;
  ++reconnects_;
  NodeId id = peer.id;
  peer.redial_timer = timers_.Push(Now() + delay, [this, id] {
    auto it = peers_.find(id);
    if (it != peers_.end() && it->second.fd < 0) {
      DialPeer(it->second);
    }
  });
}

void RealEnv::AcceptPending() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Inbound conn;
    conn.fd = fd;
    inbound_[fd] = std::move(conn);
    EpollCtl(EPOLL_CTL_ADD, fd, EPOLLIN);
  }
}

bool RealEnv::DrainFrames(Bytes& buf) {
  size_t off = 0;
  while (buf.size() - off >= 8) {
    uint32_t len = LoadU32Le(buf.data() + off);
    if (len > options_.max_frame_bytes) {
      return false;
    }
    if (buf.size() - off < 8 + static_cast<size_t>(len)) {
      break;
    }
    NodeId sender = LoadU32Le(buf.data() + off + 4);
    Payload payload(Bytes(buf.begin() + static_cast<ptrdiff_t>(off) + 8,
                          buf.begin() + static_cast<ptrdiff_t>(off) + 8 + len));
    off += 8 + len;
    ++messages_delivered_;
    if (node_ != nullptr && node_->up()) {
      node_->HandleMessage(sender, payload);
    }
  }
  if (off > 0) {
    buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(off));
  }
  return true;
}

void RealEnv::ReadInbound(Inbound& conn) {
  uint8_t chunk[64 * 1024];
  for (;;) {
    ++recv_calls_;
    ssize_t n = recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      if (!DrainFrames(conn.in)) {
        n = 0;  // corrupt stream: fall through to close
      } else if (static_cast<size_t>(n) == sizeof(chunk)) {
        continue;  // a full chunk: more may be queued
      } else {
        // A short read emptied the socket. epoll is level-triggered, so
        // anything arriving later is reported again; skip the recv that
        // would only return EAGAIN.
        return;
      }
    }
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      EpollCtl(EPOLL_CTL_DEL, conn.fd, 0);
      close(conn.fd);
      inbound_.erase(conn.fd);
    }
    return;
  }
}

void RealEnv::RequestStop() {
  stop_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    uint8_t b = 1;
    // write() is async-signal-safe; a full pipe is fine (loop will wake).
    ssize_t ignored = write(wake_pipe_[1], &b, 1);
    (void)ignored;
  }
}

int RealEnv::TimeoutUntilNextTimer() const {
  if (timers_.empty()) {
    return 1000;  // wake periodically anyway; costs nothing
  }
  SimTime until = timers_.next_time() - Now();
  if (until <= 0) {
    return 0;
  }
  // Round up so we do not busy-spin under the deadline.
  return static_cast<int>(std::min<SimTime>(
      (until + kMillisecond - 1) / kMillisecond, 1000));
}

void RealEnv::PumpEpoll(int timeout_ms) {
  epoll_event events[64];
  int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
  ++loop_wakeups_;
  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    uint32_t mask = events[i].events;
    if (fd == wake_pipe_[0]) {
      uint8_t drain[64];
      while (read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
      continue;
    }
    if (fd == listen_fd_) {
      AcceptPending();
      continue;
    }
    auto in_it = inbound_.find(fd);
    if (in_it != inbound_.end()) {
      ReadInbound(in_it->second);
      continue;
    }
    // Outbound peer socket.
    Peer* peer = nullptr;
    for (auto& [id, p] : peers_) {
      if (p.fd == fd) {
        peer = &p;
        break;
      }
    }
    if (peer == nullptr) {
      continue;
    }
    if (peer->connecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      OnDialResult(*peer, err == 0 && (mask & (EPOLLERR | EPOLLHUP)) == 0);
      continue;
    }
    if (mask & (EPOLLERR | EPOLLHUP)) {
      OnDialResult(*peer, false);
      continue;
    }
    if (mask & EPOLLIN) {
      // Peers never send on our outbound connection; a read event here is
      // EOF (peer restarted). Redial.
      uint8_t probe[256];
      ++recv_calls_;
      ssize_t r = recv(fd, probe, sizeof(probe), 0);
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        OnDialResult(*peer, false);
        continue;
      }
    }
    if (mask & EPOLLOUT) {
      FlushPeer(*peer);
    }
  }
}

void RealEnv::Run() {
  running_ = true;
  for (auto& [id, peer] : peers_) {
    DialPeer(peer);
  }
  if (node_ != nullptr) {
    if (options_.start_delay > 0) {
      timers_.Push(Now() + options_.start_delay, [this] { node_->Start(); });
    } else {
      node_->Start();
    }
  }
  while (!stop_.load(std::memory_order_acquire)) {
    PumpEpoll(TimeoutUntilNextTimer());
    // One clock reading bounds the sweep: every timer due by then fires,
    // in (deadline, schedule order), including timers the callbacks add.
    sweep_now_ = Now();
    sweeping_ = true;
    while (!timers_.empty() && timers_.next_time() <= sweep_now_) {
      timers_.Pop()();
    }
    sweeping_ = false;
  }
  running_ = false;
}

}  // namespace sdr
