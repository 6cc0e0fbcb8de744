#include "bddfc/serve/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
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

// Reads more bytes into *buf. Returns false on EOF/error, true otherwise
// (including a timeout, which just lets the caller re-check `stop`).
bool FillSome(int fd, std::string* buf, const std::atomic<bool>& stop,
              bool* timed_out) {
  *timed_out = false;
  char chunk[4096];
  const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  if (n > 0) {
    buf->append(chunk, static_cast<size_t>(n));
    return true;
  }
  if (n == 0) return false;  // peer closed
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    *timed_out = true;
    return !stop.load(std::memory_order_relaxed);
  }
  return false;
}

// Answers one protocol error and closes the connection: after a refused
// header the rest of the stream cannot be framed.
void RejectAndClose(int fd, const Status& st) {
  SendAll(fd, FormatResponse(Response{st, st.message()}));
  ::close(fd);
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

  std::string buf;
  size_t scanned = 0;  // leading bytes of buf known to hold no '\n'
  bool http_checked = false;
  for (;;) {
    // Serve every complete request already buffered.
    for (;;) {
      if (!http_checked && buf.size() >= 4) {
        http_checked = true;
        if (LooksLikeHttp(buf)) {
          // One-shot HTTP: wait for the request line, answer, close.
          size_t eol;
          while ((eol = buf.find('\n')) == std::string::npos) {
            bool timed_out;
            if (buf.size() > kMaxRequestLineBytes ||
                !FillSome(fd, &buf, stop, &timed_out)) {
              ::close(fd);
              return;
            }
          }
          SendAll(fd, HandleHttp(server, std::string_view(buf).substr(0, eol)));
          ::close(fd);
          return;
        }
      }
      const size_t eol = buf.find('\n', scanned);
      if (eol == std::string::npos) {
        scanned = buf.size();
        if (scanned > kMaxRequestLineBytes) {
          RejectAndClose(fd, Status::InvalidArgument(
                                 "request line exceeds " +
                                 std::to_string(kMaxRequestLineBytes) +
                                 " bytes"));
          return;
        }
        break;
      }
      std::string_view line = std::string_view(buf).substr(0, eol);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) {
        buf.erase(0, eol + 1);
        scanned = 0;
        continue;
      }

      Request request;
      size_t payload_bytes = 0;
      bool quit = false;
      const Status parsed =
          ParseRequestLine(line, &request, &payload_bytes, &quit);
      if (quit) {
        ::close(fd);
        return;
      }
      if (!parsed.ok()) {
        buf.erase(0, eol + 1);
        scanned = 0;
        if (!SendAll(fd, FormatResponse(Response{parsed, parsed.message()}))) {
          ::close(fd);
          return;
        }
        continue;
      }
      // The payload is buffered whole before Handle: refuse one the
      // server's memory budget could never admit before reading it.
      const size_t limit = server.options().memory_limit_bytes;
      if (limit != 0 && payload_bytes > limit) {
        RejectAndClose(fd, Status::InvalidArgument(
                               "payload of " + std::to_string(payload_bytes) +
                               " bytes exceeds the server memory limit of " +
                               std::to_string(limit) + " bytes"));
        return;
      }
      if (buf.size() - (eol + 1) < payload_bytes) break;  // need more bytes
      request.payload = buf.substr(eol + 1, payload_bytes);
      size_t consumed = eol + 1 + payload_bytes;
      if (consumed < buf.size() && buf[consumed] == '\n') ++consumed;
      buf.erase(0, consumed);
      scanned = 0;
      if (!SendAll(fd, FormatResponse(server.Handle(request)))) {
        ::close(fd);
        return;
      }
    }
    bool timed_out;
    if (!FillSome(fd, &buf, stop, &timed_out)) break;
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

  std::mutex threads_mu;
  std::vector<std::thread> threads;
  while (!stop.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    std::lock_guard<std::mutex> lock(threads_mu);
    threads.emplace_back(
        [&server, conn_fd, &stop] { ServeConnection(server, conn_fd, stop); });
  }

  // Drain: stop accepting first, then wait for every connection — their
  // in-flight requests complete and fold into the metrics registries.
  ::close(listen_fd);
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(threads_mu);
    to_join.swap(threads);
  }
  for (std::thread& t : to_join) t.join();
  return Status::OK();
}

}  // namespace bddfc::serve
