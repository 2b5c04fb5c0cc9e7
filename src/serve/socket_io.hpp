#pragma once

#include <string>

#include "serve/wire.hpp"

namespace dopf::serve {

/// Thin POSIX socket layer for the serve protocol (AF_UNIX stream sockets).
/// All reads run through poll() with finite timeouts and treat EINTR as a
/// wakeup, not an error — the signal handlers are installed WITHOUT
/// SA_RESTART precisely so a drain signal interrupts a blocked read.

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Connect to a unix-domain stream socket. Returns an invalid Fd on failure
/// (errno preserved for the caller's message).
Fd connect_unix(const std::string& path);

/// Bind + listen on a unix-domain stream socket, unlinking any stale socket
/// file first. Throws WireError with errno context on failure.
Fd listen_unix(const std::string& path, int backlog);

/// Outcome of trying to read one frame.
struct ReadOutcome {
  enum Status {
    kFrame,  ///< one complete, CRC-valid frame decoded
    kIdle,   ///< no bytes arrived within idle_timeout_ms (connection fine)
    kEof,    ///< orderly close before any frame byte (connection done)
  };
  Status status = kIdle;
  Frame frame;
};

/// Read exactly one frame from `fd`. `idle_timeout_ms` bounds the wait for
/// the FIRST byte; once a frame has started, `stall_timeout_ms` bounds the
/// wait for the remainder. A torn frame — EOF or stall mid-frame — and any
/// malformed bytes (bad magic, oversize length, CRC mismatch) throw
/// WireError; the stream is desynchronized and the caller must close it.
ReadOutcome read_frame_fd(int fd, int idle_timeout_ms,
                          int stall_timeout_ms = 5000);

/// Write all of `bytes` to `fd` (handles partial writes and EINTR, never
/// raises SIGPIPE). Returns false on error — for a response writer that
/// means the peer is gone, which is their loss, not ours.
bool write_all_fd(int fd, std::string_view bytes);

}  // namespace dopf::serve
