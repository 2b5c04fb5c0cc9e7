#include "serve/socket_io.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dopf::serve {
namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  if (left > 60000) return 60000;
  return static_cast<int>(left);
}

/// Read exactly `n` bytes before `deadline`. Returns the byte count read so
/// far when the deadline expires or the peer closes early (< n), or n on
/// success. Throws WireError only on a hard socket error.
std::size_t read_upto_deadline(int fd, char* buf, std::size_t n,
                               Clock::time_point deadline) {
  std::size_t got = 0;
  while (got < n) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int timeout = remaining_ms(deadline);
    if (timeout == 0) return got;
    const int rc = ::poll(&pfd, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal wakeup: re-check the deadline
      throw WireError(std::string("poll failed: ") + std::strerror(errno));
    }
    if (rc == 0) return got;  // idle past the deadline
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw WireError(std::string("read failed: ") + std::strerror(errno));
    }
    if (r == 0) return got;  // EOF
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Fd connect_unix(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return Fd();
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Fd();
  if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Fd();
  }
  return fd;
}

Fd listen_unix(const std::string& path, int backlog) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw WireError("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket from a crashed predecessor
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw WireError(std::string("socket failed: ") + std::strerror(errno));
  }
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw WireError("bind failed on " + path + ": " + std::strerror(errno));
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw WireError("listen failed on " + path + ": " + std::strerror(errno));
  }
  return fd;
}

ReadOutcome read_frame_fd(int fd, int idle_timeout_ms, int stall_timeout_ms) {
  ReadOutcome out;

  // Header: magic(4) + op(1) + length(4). The idle timeout applies only
  // while nothing has arrived; once the first byte lands we are mid-frame
  // and switch to the (shorter) stall budget.
  char header[9];
  const auto idle_deadline =
      Clock::now() + std::chrono::milliseconds(idle_timeout_ms);
  std::size_t got = read_upto_deadline(fd, header, 1, idle_deadline);
  if (got == 0) {
    // Distinguish "peer closed" from "nothing yet": peek with a zero wait.
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 0) > 0 && (pfd.revents & (POLLHUP | POLLIN)) != 0) {
      char probe;
      const ssize_t r = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
      if (r == 0) {
        out.status = ReadOutcome::kEof;
        return out;
      }
      if (r == 1) {
        // A byte raced in after the deadline; treat as idle — the caller
        // loops around and reads it next time.
      }
    }
    out.status = ReadOutcome::kIdle;
    return out;
  }

  const auto stall_deadline =
      Clock::now() + std::chrono::milliseconds(stall_timeout_ms);
  got += read_upto_deadline(fd, header + got, sizeof(header) - got,
                            stall_deadline);
  if (got < sizeof(header)) {
    throw WireError("torn frame: connection ended after " +
                    std::to_string(got) + " header byte(s)");
  }

  // Validate magic and length BEFORE allocating the payload buffer — a
  // corrupt length field must not turn into a giant allocation.
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&length, header + 5, 4);
  if (magic != kWireMagic) {
    throw WireError("bad frame magic on stream (desynchronized?)");
  }
  if (length > kMaxPayload) {
    throw WireError("frame length " + std::to_string(length) +
                    " exceeds kMaxPayload");
  }

  std::string rest(static_cast<std::size_t>(length) + 4, '\0');
  const std::size_t rest_got =
      read_upto_deadline(fd, rest.data(), rest.size(), stall_deadline);
  if (rest_got < rest.size()) {
    throw WireError("torn frame: connection ended " +
                    std::to_string(rest.size() - rest_got) +
                    " byte(s) short of a full frame");
  }

  std::string full(header, sizeof(header));
  full += rest;
  std::size_t consumed = 0;
  out.frame = decode_frame(full, &consumed);  // CRC + op validation
  out.status = ReadOutcome::kFrame;
  return out;
}

bool write_all_fd(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace dopf::serve
