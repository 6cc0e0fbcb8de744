#include "bddfc/serve/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bddfc/serve/protocol.h"

namespace bddfc::serve {

namespace {

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads more bytes into *buf and returns how many: 0 once the peer has
// closed, -1 on an error or once `stop` is set while the peer is idle.
ssize_t Receive(int fd, std::string* buf, const std::atomic<bool>& stop) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) buf->append(chunk, static_cast<size_t>(n));
    if (n >= 0) return n;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return -1;
    if (stop.load(std::memory_order_relaxed)) return -1;
  }
}

void ServeConnection(ReasoningServer& server, int fd,
                     const std::atomic<bool>& stop) {
  // A receive timeout bounds how long an idle connection can ignore the
  // stop flag; in-flight requests still run to completion (drain).
  timeval tv{};
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // The Framer frames (protocol.h); this loop only moves bytes. A peer
  // that closes its side ends the stream, as ServeBuffer's input ends.
  Framer framer(server);
  std::string in, out;
  for (;;) {
    const ssize_t got = Receive(fd, &in, stop);
    if (got < 0) break;
    size_t used = 0;
    const bool closing = framer.Serve(in, &used, &out, /*at_end=*/got == 0);
    if (!SendAll(fd, out) || closing || got == 0) break;
    in.erase(0, used);
    out.clear();
  }
  ::close(fd);
}

}  // namespace

Status Serve(ReasoningServer& server, const DaemonOptions& options,
             std::atomic<bool>& stop) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd);
    return Status::Internal(std::string("bind: ") + std::strerror(err));
  }
  if (::listen(listen_fd, 64) < 0) {
    const int err = errno;
    ::close(listen_fd);
    return Status::Internal(std::string("listen: ") + std::strerror(err));
  }
  if (options.bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    options.bound_port->store(ntohs(bound.sin_port),
                              std::memory_order_release);
  }

  // Only this thread touches `threads`.
  std::vector<std::thread> threads;
  while (!stop.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    threads.emplace_back(
        [&server, conn_fd, &stop] { ServeConnection(server, conn_fd, stop); });
  }

  // Drain: stop accepting first, then wait for every connection — their
  // in-flight requests complete and fold into the metrics registries.
  ::close(listen_fd);
  for (std::thread& t : threads) t.join();
  return Status::OK();
}

}  // namespace bddfc::serve
