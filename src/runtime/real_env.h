// RealEnv: the Env implementation for running one protocol role as a real
// process. A single-threaded epoll event loop over:
//
//   - a TCP listener accepting inbound peer connections,
//   - one outbound TCP connection per configured peer, redialed with
//     exponential backoff while down (messages to a down peer drop, which
//     is the same best-effort contract the simulated network gives),
//   - wall-clock timers in the simulator's own EventQueue, so both
//     substrates share one order rule and one Cancel,
//   - a self-pipe so RequestStop() is safe from signal handlers and other
//     threads.
//
// Wire framing is minimal and symmetric: every message is
//   [u32le payload_len][u32le sender_id][payload bytes]
// on a connection in either direction. The sender id is carried per frame
// (not negotiated per connection) and is exactly as unauthenticated as the
// simulator's `from` — the protocol's signatures are the trust layer.
//
// Clocks: Now() is microseconds since a configured epoch, advanced by
// CLOCK_MONOTONIC (the realtime-vs-monotonic offset is sampled once at
// construction, so NTP steps cannot yank timers). Every process in a
// deployment is given the same epoch (sdrcluster passes its own start
// time), which makes Now() comparable across processes up to host clock
// skew — the paper's freshness windows assume exactly this kind of loose
// synchronization, and the skew budget must stay well under max_latency.
#ifndef SDR_SRC_RUNTIME_REAL_ENV_H_
#define SDR_SRC_RUNTIME_REAL_ENV_H_

#include <cstdint>
#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "src/runtime/env.h"
#include "src/runtime/event_queue.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace sdr {

class TraceSink;

class RealEnv final : public Env {
 public:
  struct Options {
    std::string listen_host = "127.0.0.1";
    // 0 binds an ephemeral port; read it back with listen_port().
    uint16_t listen_port = 0;
    // Seed for this node's private random stream (lying slaves, query
    // generators). Per-node in a real deployment, unlike the simulator's
    // shared stream.
    uint64_t rng_seed = 1;
    // Cluster epoch in microseconds of CLOCK_REALTIME. Now() counts from
    // here. 0 means "this process's start", which is only correct for a
    // node that never compares timestamps with peers (or tests).
    int64_t epoch_realtime_us = 0;
    // Reconnect backoff: min(initial << attempt, max), attempt counting
    // from 0 per disconnected peer.
    SimTime reconnect_initial = 100 * kMillisecond;
    SimTime reconnect_max = 5 * kSecond;
    // Frames larger than this abort the connection (corrupt peer guard).
    uint32_t max_frame_bytes = 16u << 20;
    // Defers the node's Start() so a freshly launched process fleet can
    // finish dialing before the first protocol message goes out.
    SimTime start_delay = 0;
  };

  explicit RealEnv(Options options);
  ~RealEnv() override;

  RealEnv(const RealEnv&) = delete;
  RealEnv& operator=(const RealEnv&) = delete;

  // Binds `node` to this env under `id`. Call once before Run().
  void Attach(Node* node, NodeId id);

  // Registers a peer's address. Outbound dialing starts when Run() does;
  // messages to unregistered ids are counted and dropped.
  void AddPeer(NodeId id, const std::string& host, uint16_t port);

  // The actual bound port (useful with listen_port = 0).
  uint16_t listen_port() const { return bound_port_; }

  void set_trace(TraceSink* trace) { trace_ = trace; }

  // Runs the event loop on the calling thread: calls the node's Start(),
  // then serves timers and sockets until RequestStop(). Everything except
  // RequestStop() must be called from this thread.
  void Run();

  // Env interface.
  SimTime Now() const override;
  EventId ScheduleAt(SimTime t, InlineFunction<void()> fn) override;
  void Cancel(EventId id) override;
  void Send(NodeId to, Payload payload) override;
  Rng& rng() override { return rng_; }
  TraceSink* trace() const override { return trace_; }
  // Async-signal-safe and callable from any thread.
  void RequestStop() override;

  // The backoff schedule, exposed for tests: min(initial << attempt, max).
  static SimTime ReconnectDelay(int attempt, SimTime initial, SimTime max);

  // Transport counters (shape matches the simulated Network's).
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t reconnects() const { return reconnects_; }
  // System calls and wake-ups the transport cost: epoll_wait returns,
  // and send, recv and epoll_ctl calls.
  uint64_t loop_wakeups() const { return loop_wakeups_; }
  uint64_t send_calls() const { return send_calls_; }
  uint64_t recv_calls() const { return recv_calls_; }
  uint64_t epoll_ctl_calls() const { return epoll_ctl_calls_; }

 private:
  struct Peer {
    NodeId id = kInvalidNode;
    std::string host;
    uint16_t port = 0;
    int fd = -1;              // outbound socket, -1 while down
    bool connecting = false;  // non-blocking connect in flight
    bool epoll_out = false;   // EPOLLOUT is in fd's registered interest
    int attempts = 0;         // consecutive failed dials
    EventId redial_timer = 0;
    Bytes out;                // unflushed outbound bytes
    size_t out_off = 0;       // consumed prefix of `out`
  };
  struct Inbound {
    int fd = -1;
    Bytes in;  // partial frame bytes
  };

  void SetupListener();
  void CloseAll();
  void DialPeer(Peer& peer);
  void OnDialResult(Peer& peer, bool ok);
  void ScheduleRedial(Peer& peer);
  void FlushPeer(Peer& peer);
  void AcceptPending();
  void ReadInbound(Inbound& conn);
  // Consumes complete frames from `buf`, delivering each to the node.
  // Returns false when the stream is corrupt (oversized frame).
  bool DrainFrames(Bytes& buf);
  // epoll_ctl on this env's epoll set, counted.
  void EpollCtl(int op, int fd, uint32_t events);
  // Registers EPOLLOUT interest exactly while a connect is in flight or
  // bytes wait in `out`; issues EPOLL_CTL_MOD only when that changes.
  void UpdateEpollOut(Peer& peer);
  void PumpEpoll(int timeout_ms);
  int TimeoutUntilNextTimer() const;

  Options options_;
  Node* node_ = nullptr;
  NodeId self_ = kInvalidNode;
  Rng rng_;
  TraceSink* trace_ = nullptr;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t bound_port_ = 0;
  int64_t mono_epoch_us_ = 0;  // Now() = mono_us - mono_epoch_us_

  EventQueue timers_;
  // The Run loop's clock reading for the timer sweep in progress.
  SimTime sweep_now_ = 0;
  bool sweeping_ = false;
  std::map<NodeId, Peer> peers_;
  std::map<int, Inbound> inbound_;  // by fd
  // sdrlint:shared_atomic — set by Stop() from signal/other threads,
  // polled by the event loop
  std::atomic<bool> stop_{false};
  bool running_ = false;

  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t loop_wakeups_ = 0;
  uint64_t send_calls_ = 0;
  uint64_t recv_calls_ = 0;
  uint64_t epoll_ctl_calls_ = 0;
};

}  // namespace sdr

#endif  // SDR_SRC_RUNTIME_REAL_ENV_H_
