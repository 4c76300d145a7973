// Multi-process TCP transport backend: every rank is an OS process, the
// ranks form a full mesh of nonblocking TCP sockets driven by a poll loop
// (the classic Isend/Irecv/Waitall structure: Post enqueues frames on
// per-peer send queues, the pump flushes them opportunistically and parses
// incoming frames, Recv blocks pumping until the matched frame arrives,
// Fence drains every queue then runs a centralized barrier through rank 0).
//
// Rendezvous: rank 0 listens on a known port (either an inherited pre-bound
// listener fd from the launcher — race-free — or a port it binds itself,
// retrying upward on EADDRINUSE). Every other rank opens its own ephemeral
// listener, connects to rank 0 and sends hello{rank, my_listener_port};
// once all hellos are in, rank 0 broadcasts the port map and each pair
// (i, j) with 0 < i < j completes the mesh by j connecting to i's listener.
//
// Failure semantics: a peer closing its socket mid-collective (rank death)
// or a receive deadline expiring raises TransportError — collectives fail
// fast instead of hanging.
#pragma once

#include <cstdint>
#include <memory>

#include "comm/transport.hpp"

namespace psra::transport {

struct TcpOptions {
  comm::Transport::Rank rank = 0;
  comm::Transport::Rank world = 1;
  /// Rank 0's rendezvous port. For rank 0 with no listen_fd: the port to
  /// bind (0 = ephemeral, only meaningful with a single process or tests
  /// probing listen_port()); when it is taken, rank 0 tries successive
  /// ports (port+1, ...) a fixed number of times. For rank > 0: the port
  /// to connect to.
  std::uint16_t port = 0;
  /// Pre-bound listening socket inherited from the launcher (rank 0 only);
  /// -1 to bind from `port`. Ownership transfers to the transport.
  int listen_fd = -1;
  /// Rendezvous connect budget (covers peers starting at different times).
  double connect_timeout_s = 20.0;
  /// How long Recv/Fence wait before declaring a peer lost.
  double recv_timeout_s = 20.0;
  /// When nonzero, shrinks SO_SNDBUF/SO_RCVBUF on every mesh socket —
  /// forces partial reads/writes even for small payloads (test knob).
  int sock_buf_bytes = 0;

  /// Reads PSRA_RANK, PSRA_WORLD, PSRA_PORT and PSRA_LISTEN_FD, as exported
  /// by tools/psra_launch. Throws InvalidArgument when absent/malformed.
  static TcpOptions FromEnv();
};

class TcpTransport final : public comm::Transport {
 public:
  /// Performs the full rendezvous; returns once the mesh is connected.
  explicit TcpTransport(const TcpOptions& options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Rank rank() const override;
  Rank world_size() const override;
  std::string Name() const override { return "tcp"; }

  void Post(Rank dst, Tag tag, std::span<const std::byte> payload) override;
  void Recv(Rank src, Tag tag, std::vector<std::byte>& out) override;
  void Fence() override;

  /// While attached: Post/Recv/Fence record wire_post/wire_recv/wire_fence
  /// spans (peer + tag annotated) and frame/fence wait histograms, the pump
  /// times its poll() waits and counts partial writes, and Enqueue tracks
  /// per-peer send-queue high-water marks. Detached costs one branch per
  /// call on each of those paths.
  void AttachObs(obs::WireObs* obs) override;
  void FlushWireMetrics() override;

  /// The port this rank's listener actually bound (after any collision
  /// retries). Rank 0's value is the rendezvous port.
  std::uint16_t listen_port() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Binds a listening TCP socket on 127.0.0.1:`port`, retrying `port+1` ...
/// up to `retries` more ports on EADDRINUSE (port 0 binds ephemerally and
/// never retries). On return `port` holds the bound port. Throws
/// TransportError when every candidate is taken.
int BindListener(std::uint16_t& port, int retries);

}  // namespace psra::transport
