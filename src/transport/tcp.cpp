#include "transport/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "obs/wire.hpp"

namespace psra::transport {

using comm::Transport;
using comm::TransportError;

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(left.count(), 0));
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ThrowErrno("fcntl(O_NONBLOCK)");
  }
}

void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking exact-size read with a deadline (rendezvous only; the socket may
/// be in blocking mode). EOF or expiry throw.
void ReadFully(int fd, void* buf, std::size_t n, Clock::time_point deadline) {
  auto* p = static_cast<std::byte*>(buf);
  while (n > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = poll(&pfd, 1, RemainingMs(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("poll");
    }
    if (rc == 0) throw TransportError("rendezvous read timeout");
    const ssize_t got = recv(fd, p, n, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      ThrowErrno("recv");
    }
    if (got == 0) throw TransportError("peer closed during rendezvous");
    p += got;
    n -= static_cast<std::size_t>(got);
  }
}

void WriteFully(int fd, const void* buf, std::size_t n,
                Clock::time_point deadline) {
  const auto* p = static_cast<const std::byte*>(buf);
  while (n > 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = poll(&pfd, 1, RemainingMs(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("poll");
    }
    if (rc == 0) throw TransportError("rendezvous write timeout");
    const ssize_t put = send(fd, p, n, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      ThrowErrno("send");
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
}

int ConnectLoopback(std::uint16_t port, Clock::time_point deadline) {
  while (true) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) ThrowErrno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      SetNoDelay(fd);
      return fd;
    }
    const int err = errno;
    close(fd);
    // The peer's listener may not be up yet (process start order is
    // arbitrary); back off briefly and retry until the deadline.
    if (err != ECONNREFUSED && err != ETIMEDOUT && err != EINTR) {
      errno = err;
      ThrowErrno("connect(127.0.0.1:" + std::to_string(port) + ")");
    }
    if (Clock::now() >= deadline) {
      throw TransportError("connect timeout to 127.0.0.1:" +
                           std::to_string(port));
    }
    usleep(10'000);
  }
}

// Frame header on the wire: u32 src | u32 tag | u64 payload length.
constexpr std::size_t kHeaderSize = 16;

void EncodeHeader(std::byte* out, Transport::Rank src, Transport::Tag tag,
                  std::uint64_t len) {
  std::uint32_t s = src, t = tag;
  std::memcpy(out, &s, 4);
  std::memcpy(out + 4, &t, 4);
  std::memcpy(out + 8, &len, 8);
}

/// Barrier token tag (inside the reserved range >= kMaxUserTag).
constexpr Transport::Tag kBarrierTag = 0xFFFFFFFFu;

/// How many successive ports rank 0 tries after TcpOptions::port when it
/// binds the rendezvous port itself and the port is taken.
constexpr int kPortRetries = 16;

std::uint32_t EnvU32(const char* name) {
  const char* v = std::getenv(name);
  PSRA_REQUIRE(v != nullptr && *v != '\0',
               std::string("missing environment variable ") + name);
  return static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
}

}  // namespace

int BindListener(std::uint16_t& port, int retries) {
  std::uint16_t candidate = port;
  for (int attempt = 0;; ++attempt) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) ThrowErrno("socket");
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(candidate);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      if (listen(fd, 128) < 0) {
        close(fd);
        ThrowErrno("listen");
      }
      socklen_t len = sizeof(addr);
      if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        close(fd);
        ThrowErrno("getsockname");
      }
      port = ntohs(addr.sin_port);
      return fd;
    }
    const int err = errno;
    close(fd);
    // Explicitly requested ports ride out collisions by probing upward;
    // ephemeral binds (port 0) cannot collide.
    if (err == EADDRINUSE && port != 0 && attempt < retries) {
      ++candidate;
      continue;
    }
    errno = err;
    ThrowErrno("bind(127.0.0.1:" + std::to_string(candidate) + ")");
  }
}

TcpOptions TcpOptions::FromEnv() {
  TcpOptions o;
  o.rank = EnvU32("PSRA_RANK");
  o.world = EnvU32("PSRA_WORLD");
  o.port = static_cast<std::uint16_t>(EnvU32("PSRA_PORT"));
  if (const char* fd = std::getenv("PSRA_LISTEN_FD"); fd != nullptr) {
    o.listen_fd = std::atoi(fd);
  }
  PSRA_REQUIRE(o.rank < o.world, "PSRA_RANK must be below PSRA_WORLD");
  return o;
}

struct TcpTransport::Impl {
  struct Frame {
    Tag tag = 0;
    std::vector<std::byte> payload;
  };

  struct Peer {
    int fd = -1;
    bool closed = false;
    // Outgoing: one contiguous queue, [send_off, size) still unsent.
    std::vector<std::byte> sendq;
    std::size_t send_off = 0;
    // Incoming: raw bytes awaiting frame parsing, then parsed frames.
    std::vector<std::byte> rbuf;
    std::deque<Frame> frames;
  };

  Rank rank = 0;
  Rank world = 1;
  double recv_timeout_s = 20.0;
  std::uint16_t listen_port = 0;
  std::vector<Peer> peers;

  // --- wire observability (all dormant while obs == nullptr) --------------
  obs::WireObs* obs = nullptr;
  // Hoisted at attach time so the pump/Recv paths skip the map lookups.
  obs::Histogram* frame_wait = nullptr;  // wire.frame.wait_s
  obs::Histogram* fence_wait = nullptr;  // wire.fence.wait_s
  std::uint64_t poll_calls = 0;
  double poll_wait_s = 0.0;
  std::uint64_t partial_writes = 0;
  std::vector<std::size_t> sendq_hwm;  // pending bytes high-water, per peer

  // --- mesh construction --------------------------------------------------

  void Rendezvous(const TcpOptions& opt) {
    rank = opt.rank;
    world = opt.world;
    recv_timeout_s = opt.recv_timeout_s;
    peers.resize(world);
    const auto deadline = Deadline(opt.connect_timeout_s);
    if (world == 1) {
      if (opt.listen_fd >= 0) close(opt.listen_fd);
      return;
    }

    int listener = -1;
    if (rank == 0) {
      if (opt.listen_fd >= 0) {
        listener = opt.listen_fd;
        sockaddr_in addr{};
        socklen_t len = sizeof(addr);
        if (getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) <
            0) {
          ThrowErrno("getsockname(inherited listener)");
        }
        listen_port = ntohs(addr.sin_port);
      } else {
        std::uint16_t port = opt.port;
        listener = BindListener(port, kPortRetries);
        listen_port = port;
      }
      // Collect hello{rank, listener port} from every other rank; the
      // connection itself becomes the 0 <-> r mesh link.
      std::vector<std::uint16_t> ports(world, 0);
      ports[0] = listen_port;
      for (Rank got = 1; got < world; ++got) {
        const int fd = AcceptOne(listener, deadline);
        std::byte hello[6];
        ReadFully(fd, hello, sizeof(hello), deadline);
        std::uint32_t r = 0;
        std::uint16_t port = 0;
        std::memcpy(&r, hello, 4);
        std::memcpy(&port, hello + 4, 2);
        if (r == 0 || r >= world || peers[r].fd != -1) {
          close(fd);
          throw TransportError("rendezvous: bad hello rank " +
                               std::to_string(r));
        }
        peers[r].fd = fd;
        ports[r] = port;
      }
      for (Rank r = 1; r < world; ++r) {
        WriteFully(peers[r].fd, ports.data(), ports.size() * 2, deadline);
      }
    } else {
      // Own listener (ephemeral) for the higher-ranked peers.
      std::uint16_t my_port = 0;
      listener = BindListener(my_port, 0);
      listen_port = my_port;
      // Join via rank 0 and learn everyone's listener port.
      const int fd0 = ConnectLoopback(opt.port, deadline);
      std::byte hello[6];
      const std::uint32_t me = rank;
      std::memcpy(hello, &me, 4);
      std::memcpy(hello + 4, &my_port, 2);
      WriteFully(fd0, hello, sizeof(hello), deadline);
      peers[0].fd = fd0;
      std::vector<std::uint16_t> ports(world, 0);
      ReadFully(fd0, ports.data(), ports.size() * 2, deadline);
      // Complete the mesh: connect to every lower rank's listener (they
      // accept from their backlog), then accept every higher rank.
      for (Rank r = 1; r < rank; ++r) {
        const int fd = ConnectLoopback(ports[r], deadline);
        const std::uint32_t mine = rank;
        WriteFully(fd, &mine, 4, deadline);
        peers[r].fd = fd;
      }
      for (Rank got = rank + 1; got < world; ++got) {
        const int fd = AcceptOne(listener, deadline);
        std::uint32_t r = 0;
        ReadFully(fd, &r, 4, deadline);
        if (r <= rank || r >= world || peers[r].fd != -1) {
          close(fd);
          throw TransportError("rendezvous: bad hello rank " +
                               std::to_string(r));
        }
        peers[r].fd = fd;
      }
    }
    close(listener);
    for (Rank r = 0; r < world; ++r) {
      if (r == rank) continue;
      SetNoDelay(peers[r].fd);
      if (opt.sock_buf_bytes > 0) {
        setsockopt(peers[r].fd, SOL_SOCKET, SO_SNDBUF, &opt.sock_buf_bytes,
                   sizeof(opt.sock_buf_bytes));
        setsockopt(peers[r].fd, SOL_SOCKET, SO_RCVBUF, &opt.sock_buf_bytes,
                   sizeof(opt.sock_buf_bytes));
      }
      SetNonBlocking(peers[r].fd);
    }
  }

  static int AcceptOne(int listener, Clock::time_point deadline) {
    while (true) {
      pollfd pfd{listener, POLLIN, 0};
      const int rc = poll(&pfd, 1, RemainingMs(deadline));
      if (rc < 0) {
        if (errno == EINTR) continue;
        ThrowErrno("poll(listener)");
      }
      if (rc == 0) {
        throw TransportError("rendezvous accept timeout: a rank never "
                             "connected");
      }
      const int fd = accept(listener, nullptr, nullptr);
      if (fd >= 0) return fd;
      if (errno == EINTR || errno == EAGAIN) continue;
      ThrowErrno("accept");
    }
  }

  // --- nonblocking pump ---------------------------------------------------

  /// One poll() cycle: flush pending sends, parse arriving frames.
  void PumpOnce(int timeout_ms) {
    std::vector<pollfd> pfds;
    std::vector<Rank> who;
    pfds.reserve(world);
    who.reserve(world);
    for (Rank r = 0; r < world; ++r) {
      Peer& p = peers[r];
      if (p.fd < 0) continue;
      short events = POLLIN;
      if (p.send_off < p.sendq.size()) events |= POLLOUT;
      pfds.push_back(pollfd{p.fd, events, 0});
      who.push_back(r);
    }
    if (pfds.empty()) return;
    const auto poll_begin = obs != nullptr ? Clock::now() : Clock::time_point{};
    const int rc = poll(pfds.data(), pfds.size(), timeout_ms);
    if (obs != nullptr) {
      ++poll_calls;
      poll_wait_s +=
          std::chrono::duration<double>(Clock::now() - poll_begin).count();
    }
    if (rc < 0) {
      if (errno == EINTR) return;
      ThrowErrno("poll");
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      Peer& p = peers[who[i]];
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) ReadPeer(p);
      if (pfds[i].revents & POLLOUT) WritePeer(p);
    }
  }

  void ReadPeer(Peer& p) {
    std::byte chunk[65536];
    while (p.fd >= 0) {
      const ssize_t got = recv(p.fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        p.rbuf.insert(p.rbuf.end(), chunk, chunk + got);
        if (got < static_cast<ssize_t>(sizeof(chunk))) break;
        continue;
      }
      if (got == 0) {  // orderly shutdown: the peer process is gone
        close(p.fd);
        p.fd = -1;
        p.closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        close(p.fd);
        p.fd = -1;
        p.closed = true;
        break;
      }
      ThrowErrno("recv");
    }
    // Parse complete frames out of the raw buffer.
    std::size_t off = 0;
    while (p.rbuf.size() - off >= kHeaderSize) {
      std::uint32_t src = 0, tag = 0;
      std::uint64_t len = 0;
      std::memcpy(&src, p.rbuf.data() + off, 4);
      std::memcpy(&tag, p.rbuf.data() + off + 4, 4);
      std::memcpy(&len, p.rbuf.data() + off + 8, 8);
      if (p.rbuf.size() - off - kHeaderSize < len) break;
      Frame f;
      f.tag = tag;
      f.payload.assign(p.rbuf.begin() + static_cast<std::ptrdiff_t>(
                                            off + kHeaderSize),
                       p.rbuf.begin() +
                           static_cast<std::ptrdiff_t>(off + kHeaderSize +
                                                       len));
      p.frames.push_back(std::move(f));
      off += kHeaderSize + len;
    }
    if (off > 0) p.rbuf.erase(p.rbuf.begin(),
                              p.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  }

  void WritePeer(Peer& p) {
    while (p.fd >= 0 && p.send_off < p.sendq.size()) {
      const ssize_t put = send(p.fd, p.sendq.data() + p.send_off,
                               p.sendq.size() - p.send_off, MSG_NOSIGNAL);
      if (put > 0) {
        p.send_off += static_cast<std::size_t>(put);
        continue;
      }
      if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Kernel buffer full with frames still queued: the write completes
        // across multiple pump cycles.
        if (obs != nullptr) ++partial_writes;
        return;
      }
      if (put < 0 && errno == EINTR) continue;
      if (put < 0 && (errno == EPIPE || errno == ECONNRESET)) {
        close(p.fd);
        p.fd = -1;
        p.closed = true;
        return;
      }
      ThrowErrno("send");
    }
    if (p.send_off == p.sendq.size()) {
      p.sendq.clear();
      p.send_off = 0;
    }
  }

  // --- primitives ---------------------------------------------------------

  void Enqueue(Rank dst, Tag tag, std::span<const std::byte> payload) {
    if (dst == rank) {  // local loopback
      Frame f;
      f.tag = tag;
      f.payload.assign(payload.begin(), payload.end());
      peers[rank].frames.push_back(std::move(f));
      return;
    }
    Peer& p = peers[dst];
    if (p.closed) {
      throw TransportError("post to rank " + std::to_string(dst) +
                           " which already closed its connection");
    }
    std::byte header[kHeaderSize];
    EncodeHeader(header, rank, tag, payload.size());
    p.sendq.insert(p.sendq.end(), header, header + kHeaderSize);
    p.sendq.insert(p.sendq.end(), payload.begin(), payload.end());
    if (obs != nullptr) {
      const std::size_t pending = p.sendq.size() - p.send_off;
      if (pending > sendq_hwm[dst]) sendq_hwm[dst] = pending;
    }
    WritePeer(p);  // opportunistic flush
  }

  std::vector<std::byte> Dequeue(Rank src, Tag tag) {
    const auto deadline = Deadline(recv_timeout_s);
    while (true) {
      Peer& p = peers[src];
      for (auto it = p.frames.begin(); it != p.frames.end(); ++it) {
        if (it->tag == tag) {
          std::vector<std::byte> payload = std::move(it->payload);
          p.frames.erase(it);
          return payload;
        }
      }
      if (p.closed) {
        throw TransportError("rank " + std::to_string(src) +
                             " died before sending tag " +
                             std::to_string(tag));
      }
      if (Clock::now() >= deadline) {
        throw TransportError("recv timeout waiting for rank " +
                             std::to_string(src) + " tag " +
                             std::to_string(tag));
      }
      PumpOnce(std::min(RemainingMs(deadline), 50));
    }
  }

  void FlushAll() {
    const auto deadline = Deadline(recv_timeout_s);
    while (true) {
      bool pending = false;
      for (Rank r = 0; r < world; ++r) {
        if (peers[r].send_off < peers[r].sendq.size()) pending = true;
      }
      if (!pending) return;
      if (Clock::now() >= deadline) {
        throw TransportError("fence timeout: outgoing queue never drained");
      }
      PumpOnce(std::min(RemainingMs(deadline), 50));
    }
  }

  ~Impl() {
    for (Peer& p : peers) {
      if (p.fd >= 0) close(p.fd);
    }
  }
};

TcpTransport::TcpTransport(const TcpOptions& options)
    : impl_(std::make_unique<Impl>()) {
  PSRA_REQUIRE(options.world > 0, "tcp transport needs at least one rank");
  PSRA_REQUIRE(options.rank < options.world, "rank must be below world size");
  impl_->Rendezvous(options);
}

TcpTransport::~TcpTransport() = default;

Transport::Rank TcpTransport::rank() const { return impl_->rank; }
Transport::Rank TcpTransport::world_size() const { return impl_->world; }
std::uint16_t TcpTransport::listen_port() const { return impl_->listen_port; }

void TcpTransport::Post(Rank dst, Tag tag,
                        std::span<const std::byte> payload) {
  CheckPeer(dst);
  CheckUserTag(tag);
  if (obs::WireObs* o = impl_->obs; o != nullptr) {
    // Post is nonblocking, so the span is an instant marking when the frame
    // entered the send queue; the matching wire_recv on the peer closes the
    // edge.
    const double now = o->Now();
    o->tracer().Add(o->track(), "wire_post", now, now, o->iteration, 0.0,
                    static_cast<std::int64_t>(dst), tag);
  }
  impl_->Enqueue(dst, tag, payload);
  CountPost(payload.size());
}

void TcpTransport::Recv(Rank src, Tag tag, std::vector<std::byte>& out) {
  CheckPeer(src);
  CheckUserTag(tag);
  obs::WireObs* o = impl_->obs;
  const double begin = o != nullptr ? o->Now() : 0.0;
  out = impl_->Dequeue(src, tag);
  if (o != nullptr) {
    const double end = o->Now();
    o->tracer().Add(o->track(), "wire_recv", begin, end, o->iteration,
                    end - begin, static_cast<std::int64_t>(src), tag);
    impl_->frame_wait->Observe(end - begin);
  }
  CountRecv(out.size());
}

void TcpTransport::Fence() {
  obs::WireObs* o = impl_->obs;
  const double begin = o != nullptr ? o->Now() : 0.0;
  impl_->FlushAll();  // Waitall
  // Centralized barrier through rank 0 with an internal (uncounted) token.
  const std::byte token{0};
  if (impl_->world > 1) {
    if (impl_->rank == 0) {
      for (Rank r = 1; r < impl_->world; ++r) {
        (void)impl_->Dequeue(r, kBarrierTag);
      }
      for (Rank r = 1; r < impl_->world; ++r) {
        impl_->Enqueue(r, kBarrierTag, std::span<const std::byte>(&token, 1));
      }
      impl_->FlushAll();
    } else {
      impl_->Enqueue(0, kBarrierTag, std::span<const std::byte>(&token, 1));
      impl_->FlushAll();
      (void)impl_->Dequeue(0, kBarrierTag);
    }
  }
  if (o != nullptr) {
    const double end = o->Now();
    o->tracer().Add(o->track(), "wire_fence", begin, end, o->iteration,
                    end - begin);
    impl_->fence_wait->Observe(end - begin);
  }
  CountFence();
}

void TcpTransport::AttachObs(obs::WireObs* obs) {
  Transport::AttachObs(obs);
  impl_->obs = obs;
  if (obs != nullptr) {
    impl_->frame_wait =
        &obs->metrics().Histo("wire.frame.wait_s", obs::WireLatencyBounds());
    impl_->fence_wait =
        &obs->metrics().Histo("wire.fence.wait_s", obs::WireLatencyBounds());
    impl_->sendq_hwm.assign(impl_->world, 0);
  } else {
    impl_->frame_wait = nullptr;
    impl_->fence_wait = nullptr;
  }
}

void TcpTransport::FlushWireMetrics() {
  obs::WireObs* o = impl_->obs;
  if (o == nullptr) return;
  // Counters flush incrementally (add the window, then reset) so repeated
  // flushes never double-count; gauges carry lifetime totals.
  o->metrics().Counter("wire.partial_writes") += impl_->partial_writes;
  o->metrics().Counter("wire.poll.calls") += impl_->poll_calls;
  impl_->partial_writes = 0;
  impl_->poll_calls = 0;
  o->metrics().Gauge(o->RankKey("poll_wait_s")) = impl_->poll_wait_s;
  for (Rank r = 0; r < impl_->world; ++r) {
    if (r == impl_->rank) continue;
    o->metrics().Gauge(o->RankKey("sendq_hwm.peer" + std::to_string(r))) =
        static_cast<double>(impl_->sendq_hwm[r]);
  }
}

}  // namespace psra::transport
