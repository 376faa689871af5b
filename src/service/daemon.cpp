#include "service/daemon.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/check.h"
#include "common/clock.h"
#include "common/logging.h"
#include "service/protocol.h"

namespace oef::service {

namespace {

/// Writes all of `bytes` to `fd` (MSG_NOSIGNAL: a vanished client must not
/// SIGPIPE the daemon). Returns false on any unrecoverable error.
[[nodiscard]] bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Daemon::Daemon(AllocatorService& service, DaemonOptions options)
    : service_(service),
      options_(std::move(options)),
      response_faults_(options_.response_faults) {}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  OEF_REQUIRE_CODE(!options_.socket_path.empty(), common::ErrorCode::kInvalidArgument,
                   "daemon needs a socket path");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  OEF_REQUIRE_CODE(listen_fd_ >= 0, common::ErrorCode::kBadState, "socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  OEF_REQUIRE_CODE(options_.socket_path.size() < sizeof(addr.sun_path),
                   common::ErrorCode::kInvalidArgument, "socket path too long");
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  // A stale socket file from a killed daemon would make bind fail forever;
  // unlink first — a *live* daemon still holds the listening socket open, so
  // this races only with an operator error, not with normal restarts.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    OEF_REQUIRE_CODE(false, common::ErrorCode::kBadState, "bind() failed");
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    OEF_REQUIRE_CODE(false, common::ErrorCode::kBadState, "listen() failed");
  }
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  common::log_info("oefd listening on " + options_.socket_path);
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_ || stopping_.load(); });
}

void Daemon::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // shutdown() wakes the accept() blocked in accept_loop; the fd is closed
  // and reset only once that thread, which reads listen_fd_, has exited.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  shutdown_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
  ::unlink(options_.socket_path.c_str());
}

void Daemon::reap_finished_connections() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done->load()) {
      if (it->thread.joinable()) it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (stop()) or fatal
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    reap_finished_connections();
    Connection connection;
    connection.done = std::make_shared<std::atomic<bool>>(false);
    auto done = connection.done;
    connection.thread = std::thread([this, fd, done] {
      serve_connection(fd);
      done->store(true);
    });
    std::lock_guard<std::mutex> lock(mu_);
    connections_.push_back(std::move(connection));
  }
}

void Daemon::serve_connection(int fd) {
  FrameReader reader;
  char buffer[1 << 16];
  // Progress deadline for a partially buffered frame (truncation defence).
  double partial_since = -1.0;
  bool open = true;
  while (open && !stopping_.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // client closed or errored
      }
      reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      partial_since = -1.0;  // bytes arrived: the frame is making progress
    }
    // Drain every complete frame currently buffered.
    std::string payload;
    for (;;) {
      const FrameStatus status = reader.next(payload);
      if (status == FrameStatus::kNeedMore) break;
      if (status == FrameStatus::kCorrupt) {
        corrupt_frames_.fetch_add(1);
        Response response;
        response.request_id = 0;  // untrusted bytes: the real id is unknowable
        response.status = StatusCode::kInvalidArgument;
        response.message = "corrupt frame (checksum mismatch)";
        if (!send_all(fd, encode_frame(encode_response(response)))) open = false;
        continue;
      }
      Response response;
      try {
        const Request request = decode_request(payload);
        response = service_.handle(request);
        if (request.type == MessageType::kShutdown) {
          std::lock_guard<std::mutex> lock(mu_);
          shutdown_requested_ = true;
          shutdown_cv_.notify_all();
        }
      } catch (const common::CheckError& error) {
        response.request_id = 0;
        response.status = status_from_error(error);
        response.message = error.what();
      } catch (const std::exception& error) {
        response.request_id = 0;
        response.status = StatusCode::kInternalError;
        response.message = error.what();
      }
      std::string frame = encode_frame(encode_response(response));
      if (options_.enable_response_faults) {
        double delay_seconds = 0.0;
        {
          std::lock_guard<std::mutex> lock(fault_mu_);
          frame = response_faults_.apply(frame, delay_seconds);
        }
        if (delay_seconds > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(delay_seconds));
        }
        if (frame.empty()) continue;  // response dropped; the client retries
      }
      if (!send_all(fd, frame)) {
        open = false;
        break;
      }
    }
    // Truncation defence: a frame prefix that stops making progress for
    // io_timeout_seconds means the rest is never coming.
    if (reader.buffered_bytes() > 0) {
      const double now = common::monotonic_seconds();
      if (partial_since < 0.0) {
        partial_since = now;
      } else if (now - partial_since > options_.io_timeout_seconds) {
        common::log_debug("oefd: dropping connection stalled mid-frame");
        break;
      }
    } else {
      partial_since = -1.0;
    }
  }
  ::close(fd);
}

}  // namespace oef::service
