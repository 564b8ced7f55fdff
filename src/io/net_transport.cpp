#include "io/net_transport.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "support/contracts.hpp"
#include "support/metrics.hpp"

namespace rrl {

namespace {

// Wire-level byte accounting: every byte either end of the wire moves goes
// through a FrameChannel, parent and worker alike.
metrics::Counter& wire_bytes_in() {
  static auto& c = metrics::counter("rrl_wire_bytes_in_total");
  return c;
}

metrics::Counter& wire_bytes_out() {
  static auto& c = metrics::counter("rrl_wire_bytes_out_total");
  return c;
}

void set_cloexec(int fd) {
  int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) (void)::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw contract_error(what + ": " + std::strerror(errno));
}

}  // namespace

TcpListener tcp_listen(int port, int backlog) {
  if (port < 0 || port > 65535) {
    throw contract_error("tcp_listen: port out of range");
  }
  int fd = ::socket(AF_INET6, SOCK_STREAM | SOCK_CLOEXEC, 0);
  bool v6 = fd >= 0;
  if (!v6) fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("tcp_listen: socket");

  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  int rc = -1;
  if (v6) {
    // Dual-stack: accept IPv4 peers as mapped addresses on the v6 socket.
    int zero = 0;
    (void)::setsockopt(fd, IPPROTO_IPV6, IPV6_V6ONLY, &zero, sizeof(zero));
    sockaddr_in6 addr{};
    addr.sin6_family = AF_INET6;
    addr.sin6_addr = in6addr_any;
    addr.sin6_port = htons(static_cast<std::uint16_t>(port));
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("tcp_listen: bind");
  }
  if (::listen(fd, backlog) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("tcp_listen: listen");
  }

  sockaddr_storage bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("tcp_listen: getsockname");
  }
  int actual = 0;
  if (bound.ss_family == AF_INET6) {
    actual = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
  } else {
    actual = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
  }

  set_nonblocking(fd);
  return TcpListener{fd, actual};
}

int tcp_accept(int listen_fd) noexcept {
  for (;;) {
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    return -1;
  }
}

int tcp_connect(const std::string& host, int port) {
  if (port < 1 || port > 65535) {
    throw contract_error("tcp_connect: port out of range");
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  const std::string port_str = std::to_string(port);

  addrinfo* results = nullptr;
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &results);
  if (rc != 0) {
    throw contract_error("tcp_connect: cannot resolve '" + host +
                         "': " + ::gai_strerror(rc));
  }

  int fd = -1;
  int last_errno = 0;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    int crc;
    do {
      crc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (crc != 0 && errno == EINTR);
    if (crc == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    errno = last_errno;
    throw_errno("tcp_connect: cannot connect to " + host + ":" + port_str);
  }
  set_nodelay(fd);
  set_cloexec(fd);
  return fd;
}

HostPort parse_host_port(const std::string& spec) {
  std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    throw contract_error("expected host:port, got '" + spec + "'");
  }
  std::string host = spec.substr(0, colon);
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']') {
    host = host.substr(1, host.size() - 2);
  }
  if (host.empty()) {
    throw contract_error("expected host:port, got '" + spec + "'");
  }
  const std::string port_str = spec.substr(colon + 1);
  int port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      throw contract_error("bad port in '" + spec + "': not a number");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      throw contract_error("bad port in '" + spec + "': out of range");
    }
  }
  if (port < 1) {
    throw contract_error("bad port in '" + spec + "': out of range");
  }
  return HostPort{std::move(host), port};
}

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
}

FrameChannel::FrameChannel(int read_fd, int write_fd, bool is_socket)
    : read_fd_(read_fd), write_fd_(write_fd), is_socket_(is_socket) {}

FrameChannel::FrameChannel(FrameChannel&& other) noexcept
    : read_fd_(std::exchange(other.read_fd_, -1)),
      write_fd_(std::exchange(other.write_fd_, -1)),
      is_socket_(other.is_socket_),
      outbox_(std::move(other.outbox_)),
      out_off_(other.out_off_),
      inbox_(std::move(other.inbox_)) {}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    close();
    read_fd_ = std::exchange(other.read_fd_, -1);
    write_fd_ = std::exchange(other.write_fd_, -1);
    is_socket_ = other.is_socket_;
    outbox_ = std::move(other.outbox_);
    out_off_ = other.out_off_;
    inbox_ = std::move(other.inbox_);
  }
  return *this;
}

FrameChannel::~FrameChannel() { close(); }

bool FrameChannel::send(const std::string& bytes) {
  if (write_fd_ < 0) return false;
  outbox_.append(bytes);
  return flush();
}

bool FrameChannel::flush() {
  if (write_fd_ < 0) return false;
  while (out_off_ < outbox_.size()) {
    ssize_t n;
    if (is_socket_) {
      n = ::send(write_fd_, outbox_.data() + out_off_,
                 outbox_.size() - out_off_, MSG_NOSIGNAL);
    } else {
      n = ::write(write_fd_, outbox_.data() + out_off_,
                  outbox_.size() - out_off_);
    }
    if (n > 0) {
      wire_bytes_out().add(static_cast<std::uint64_t>(n));
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // EPIPE, ECONNRESET, ...: the peer is gone
  }
  if (out_off_ == outbox_.size()) {
    outbox_.clear();
    out_off_ = 0;
  } else if (out_off_ > (64u << 10)) {
    // Reclaim the sent prefix once it is large enough to matter.
    outbox_.erase(0, out_off_);
    out_off_ = 0;
  }
  return true;
}

ChannelIo FrameChannel::read_some() {
  if (read_fd_ < 0) return ChannelIo::kError;
  char chunk[64 * 1024];
  for (;;) {
    ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
    if (n > 0) {
      wire_bytes_in().add(static_cast<std::uint64_t>(n));
      inbox_.append(chunk, static_cast<std::size_t>(n));
      return ChannelIo::kOk;
    }
    if (n == 0) return ChannelIo::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ChannelIo::kAgain;
    return ChannelIo::kError;
  }
}

void FrameChannel::close_read() {
  if (read_fd_ < 0) return;
  ::close(read_fd_);
  if (write_fd_ == read_fd_) write_fd_ = -1;
  read_fd_ = -1;
}

void FrameChannel::close() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
  read_fd_ = -1;
  write_fd_ = -1;
}

}  // namespace rrl
