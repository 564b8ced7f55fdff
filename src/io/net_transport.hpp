// TCP transport + framed-channel plumbing of the dispatch orchestrator —
// what turns the single-host `--serve --workers N` fleet into an elastic
// multi-machine one.
//
// The wire protocol (io/wire_codec.hpp) was deliberately written against
// byte streams, not pipes: the dispatcher only ever needs "give me the
// next complete frame" and "queue these frame bytes for the peer". This
// header supplies both halves for any fd:
//
//   * tcp_listen / tcp_accept / tcp_connect — minimal IPv4/IPv6 socket
//     primitives (close-on-exec, TCP_NODELAY so tiny assign/result frames
//     are not Nagle-delayed). tcp_listen(0) binds an ephemeral port and
//     reports the actual one, which the tests and benches use to run
//     loopback fleets without port collisions.
//
//   * FrameChannel — one peer's buffered, non-blocking framed byte stream.
//     Writes append to an outbox and flush opportunistically; a short
//     write (a full socket buffer, a full pipe) leaves the REMAINDER
//     queued, never a torn frame — the dispatcher polls POLLOUT while
//     wants_write() and calls flush() to resume. Reads accumulate into an
//     inbox the caller drains with decode_frame. Every raw read/write
//     rides out EINTR, and socket writes use MSG_NOSIGNAL so a peer dying
//     mid-write surfaces as an error return (an observed death the
//     dispatcher re-dispatches around), never a SIGPIPE kill.
//
// The same FrameChannel fronts a fork/exec'd worker's stdio pipes (two
// fds) and a remote worker's TCP socket (one fd), which is what makes the
// dispatch poll loop transport-agnostic. A worker's own end of the wire
// is a FrameChannel too, over blocking fds: there send() writes
// everything before it returns and read_some() waits for bytes.
//
// Security note: the transport is a trusted-network protocol — no
// authentication, no encryption (frames are checksummed against
// corruption, not tampering). Bind listeners on trusted interfaces only;
// see README's "Remote fleet" section.
#pragma once

#include <cstddef>
#include <string>
#include <sys/types.h>

namespace rrl {

/// A listening TCP socket (close-on-exec, SO_REUSEADDR) plus the port it
/// actually bound — the requested one, or the kernel's pick for port 0.
struct TcpListener {
  int fd = -1;
  int port = 0;
};

/// Listen on `port` (0 = ephemeral, reported back) on every interface.
/// The fd is non-blocking so an accept sweep in a poll loop never stalls.
/// Throws contract_error on socket/bind/listen failure.
[[nodiscard]] TcpListener tcp_listen(int port, int backlog = 32);

/// Accept one pending connection: a connected fd (close-on-exec,
/// TCP_NODELAY), or -1 when none is pending or the accept transiently
/// failed — callers just poll again.
[[nodiscard]] int tcp_accept(int listen_fd) noexcept;

/// Connect to host:port (numeric or DNS, IPv4 or IPv6). The fd is
/// blocking (a worker talks to exactly one parent), close-on-exec, with
/// TCP_NODELAY set. Throws contract_error when resolution or connection
/// fails.
[[nodiscard]] int tcp_connect(const std::string& host, int port);

/// A "host:port" spec ("10.0.0.7:7411", "[::1]:7411", "solve.lan:7411").
struct HostPort {
  std::string host;
  int port = 0;
};

/// Split "host:port" (the last ':' separates the port; brackets around an
/// IPv6 host are stripped). Throws contract_error on a malformed spec or
/// a port outside [1, 65535].
[[nodiscard]] HostPort parse_host_port(const std::string& spec);

/// Set O_NONBLOCK on `fd` (throws contract_error on fcntl failure).
void set_nonblocking(int fd);

/// Result of one FrameChannel::read_some() call.
enum class ChannelIo {
  kOk,     ///< appended at least one byte to the inbox
  kAgain,  ///< nothing available right now (non-blocking fd)
  kEof,    ///< peer closed its end
  kError,  ///< hard error (a reset connection included); the peer is
           ///< unusable
};

/// One peer's buffered framed byte stream — a TCP socket (read fd ==
/// write fd) or a stdio pipe pair, non-blocking in a poll loop or blocking
/// on a worker's side. Owns the fds it is given: close() releases them,
/// and exactly-once (a socket's single fd is never closed twice).
class FrameChannel {
 public:
  FrameChannel() = default;
  /// Wrap fds (set non-blocking by the caller for a poll loop, see
  /// set_nonblocking). `is_socket` selects send(MSG_NOSIGNAL) over
  /// write() so a dead peer cannot raise SIGPIPE even outside a
  /// scoped-ignore region.
  FrameChannel(int read_fd, int write_fd, bool is_socket);

  FrameChannel(FrameChannel&& other) noexcept;
  FrameChannel& operator=(FrameChannel&& other) noexcept;
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;
  ~FrameChannel();

  [[nodiscard]] bool open() const noexcept { return read_fd_ >= 0; }
  [[nodiscard]] int read_fd() const noexcept { return read_fd_; }
  [[nodiscard]] int write_fd() const noexcept { return write_fd_; }
  /// True when queued output remains — the caller polls POLLOUT and calls
  /// flush() when it fires.
  [[nodiscard]] bool wants_write() const noexcept {
    return !outbox_.empty();
  }

  /// Queue `bytes` (one or more complete frames) and flush as much as the
  /// fd accepts right now. A short write keeps the remainder queued — the
  /// stream never carries a torn frame. Returns false on a hard error
  /// (EPIPE included): the peer is lost.
  [[nodiscard]] bool send(const std::string& bytes);

  /// Resume flushing the outbox (POLLOUT fired). False on hard error.
  [[nodiscard]] bool flush();

  /// One read into the inbox (rides out EINTR).
  [[nodiscard]] ChannelIo read_some();

  /// Accumulated unconsumed input; the caller decodes frames from the
  /// front and erases what decode_frame consumed.
  [[nodiscard]] std::string& inbox() noexcept { return inbox_; }

  /// Close both fds (idempotent; a socket's shared fd closes once).
  void close();

  /// Close the read fd only, so the peer's next write fails while this
  /// end can still send — unless the fd is a socket's one fd, which
  /// closes whole.
  void close_read();

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  bool is_socket_ = false;
  std::string outbox_;
  std::size_t out_off_ = 0;  ///< sent prefix of outbox_ (compacted lazily)
  std::string inbox_;
};

}  // namespace rrl
