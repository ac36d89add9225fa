#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"

namespace acquire {

LineClient::~LineClient() { Close(); }

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      host_(std::move(other.host_)),
      port_(other.port_),
      retries_(other.retries_) {
  other.fd_ = -1;
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    host_ = std::move(other.host_);
    port_ = other.port_;
    retries_ = other.retries_;
    other.fd_ = -1;
  }
  return *this;
}

Status LineClient::Connect(const std::string& host, int port) {
  Close();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StringFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StringFormat("not an IPv4 address: '%s'", host.c_str()));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::IOError(StringFormat(
        "connect %s:%d: %s", host.c_str(), port, std::strerror(errno)));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  host_ = host;
  port_ = port;
  return Status::OK();
}

void LineClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Result<JsonValue> LineClient::Call(const JsonValue& request) {
  ACQ_ASSIGN_OR_RETURN(std::string line, CallRaw(request.Dump()));
  return JsonValue::Parse(line);
}

Result<JsonValue> LineClient::CallWithRetry(const JsonValue& request,
                                            const RetryOptions& retry) {
  const int attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  double backoff_ms = retry.initial_backoff_ms;
  uint64_t seed = retry.jitter_seed;
  if (seed == 0) {
    seed = 0x9E3779B97F4A7C15ULL ^
           (reinterpret_cast<uintptr_t>(this) + retries_);
  }
  Rng rng(seed);
  Result<JsonValue> last = Status::IOError("client is not connected");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      double sleep_ms = backoff_ms;
      if (retry.jitter && backoff_ms > 0.0) {
        // Decorrelated jitter (prev-based, not attempt-based): grows like
        // exponential backoff in expectation but two clients rejected by
        // the same burst diverge after the first draw instead of
        // re-colliding every round.
        sleep_ms = std::min(
            retry.max_backoff_ms,
            rng.NextDouble(std::min(retry.initial_backoff_ms,
                                    retry.max_backoff_ms),
                           std::max(retry.initial_backoff_ms,
                                    backoff_ms * 3.0)));
        backoff_ms = sleep_ms;
      }
      if (sleep_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
      if (!retry.jitter) {
        backoff_ms = std::min(backoff_ms * retry.backoff_multiplier,
                              retry.max_backoff_ms);
      }
      if (retry.reconnect && !connected() && !host_.empty()) {
        // Best effort: a failed reconnect just burns this attempt.
        if (!Connect(host_, port_).ok()) continue;
      }
    }
    last = Call(request);
    if (!last.ok()) {
      // Transport failure: the lockstep framing is gone, so the connection
      // cannot be reused even if the socket survived.
      Close();
      continue;
    }
    const bool unavailable = last->is_object() &&
                             !last->GetBool("ok", true) &&
                             last->GetString("code") == "Unavailable";
    if (!unavailable) return last;
  }
  return last;
}

Result<std::string> LineClient::CallRaw(const std::string& line) {
  ACQ_RETURN_IF_ERROR(SendLineRaw(line));
  return ReadLine();
}

Status LineClient::SendLineRaw(const std::string& line) {
  if (fd_ < 0) return Status::IOError("client is not connected");
  std::string out = line;
  out.push_back('\n');
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError(StringFormat("send: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> LineClient::ReadLine() {
  if (fd_ < 0) return Status::IOError("client is not connected");
  size_t scanned = 0;  // bytes of buffer_ already searched for the newline
  for (;;) {
    size_t pos = buffer_.find('\n', scanned);
    if (pos != std::string::npos) {
      std::string response = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      return response;
    }
    scanned = buffer_.size();
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::IOError(StringFormat("recv: %s", std::strerror(errno)));
    }
    if (n == 0) return Status::IOError("connection closed by server");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<JsonValue> LineClient::CallStreaming(const JsonValue& request,
                                            const ProgressCallback& on_progress) {
  uint64_t frames_seen = 0;
  return StreamingExchange(request, on_progress, &frames_seen);
}

Result<JsonValue> LineClient::StreamingExchange(
    const JsonValue& request, const ProgressCallback& on_progress,
    uint64_t* frames_seen) {
  ACQ_RETURN_IF_ERROR(SendLineRaw(request.Dump()));
  for (;;) {
    ACQ_ASSIGN_OR_RETURN(std::string line, ReadLine());
    ACQ_ASSIGN_OR_RETURN(JsonValue parsed, JsonValue::Parse(line));
    if (parsed.is_object() && parsed.GetBool("progress", false)) {
      ++*frames_seen;
      if (on_progress) on_progress(parsed);
      continue;
    }
    return parsed;
  }
}

Result<JsonValue> LineClient::CallStreamingWithRetry(
    const JsonValue& request, const ProgressCallback& on_progress,
    const RetryOptions& retry) {
  const int attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  double backoff_ms = retry.initial_backoff_ms;
  uint64_t seed = retry.jitter_seed;
  if (seed == 0) {
    seed = 0x9E3779B97F4A7C15ULL ^
           (reinterpret_cast<uintptr_t>(this) + retries_);
  }
  Rng rng(seed);
  Result<JsonValue> last = Status::IOError("client is not connected");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      double sleep_ms = backoff_ms;
      if (retry.jitter && backoff_ms > 0.0) {
        sleep_ms = std::min(
            retry.max_backoff_ms,
            rng.NextDouble(std::min(retry.initial_backoff_ms,
                                    retry.max_backoff_ms),
                           std::max(retry.initial_backoff_ms,
                                    backoff_ms * 3.0)));
        backoff_ms = sleep_ms;
      }
      if (sleep_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
      if (!retry.jitter) {
        backoff_ms = std::min(backoff_ms * retry.backoff_multiplier,
                              retry.max_backoff_ms);
      }
      if (retry.reconnect && !connected() && !host_.empty()) {
        if (!Connect(host_, port_).ok()) continue;
      }
    }
    uint64_t frames_seen = 0;
    last = StreamingExchange(request, on_progress, &frames_seen);
    if (!last.ok()) {
      Close();
      // A delivered PROGRESS frame proves the server admitted and started
      // this very run — its side effects (scans, cache seeding, tenant
      // accounting) are real. Retrying would execute the ACQ a second time
      // behind the caller's back, so surface the failure instead.
      if (frames_seen > 0) return last;
      continue;
    }
    const bool unavailable = last->is_object() &&
                             !last->GetBool("ok", true) &&
                             last->GetString("code") == "Unavailable";
    if (!unavailable) return last;
    // An Unavailable rejection after frames cannot happen (admission
    // precedes streaming), so plain retry is safe here.
  }
  return last;
}

}  // namespace acquire
