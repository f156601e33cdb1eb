#include "service/client.h"

#if defined(__unix__) || defined(__APPLE__)
#define PSO_SERVICE_HAVE_SOCKETS 1
#else
#define PSO_SERVICE_HAVE_SOCKETS 0
#endif

#if PSO_SERVICE_HAVE_SOCKETS
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <utility>

#include "common/str_util.h"

namespace pso::service {

#if PSO_SERVICE_HAVE_SOCKETS

Result<std::unique_ptr<SocketTransport>> SocketTransport::Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket: %s", ErrnoMessage(errno).c_str()));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(
        StrFormat("connect 127.0.0.1:%d: %s", port, ErrnoMessage(err).c_str()));
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(fd));
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) ::close(fd_);
}

Status SocketTransport::WriteAll(const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t sent =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StrFormat("send: %s", ErrnoMessage(errno).c_str()));
    }
    off += static_cast<size_t>(sent);
  }
  return Status::Ok();
}

Result<std::string> SocketTransport::ReadLine() {
  size_t scanned = 0;  // buffer_[0, scanned) is known to hold no '\n'
  for (;;) {
    const size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos && nl <= kMaxResponseLine) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    // A server cannot make the client buffer more than one read past the
    // cap.
    if (buffer_.size() > kMaxResponseLine) {
      return Status::InvalidArgument(StrFormat(
          "server response line longer than %zu bytes", kMaxResponseLine));
    }
    scanned = buffer_.size();
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StrFormat("read: %s", ErrnoMessage(errno).c_str()));
    }
    if (got == 0) {
      return Status::Internal("connection closed by server mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

Result<ServiceInfo> SocketTransport::Info() {
  Status sent = WriteAll("INFO\n");
  if (!sent.ok()) return sent;
  Result<std::string> line = ReadLine();
  if (!line.ok()) return line.status();
  return ParseInfoLine(*line);
}

Result<std::vector<QueryOutcome>> SocketTransport::IssueBatch(
    uint64_t client, const std::vector<recon::SubsetQuery>& queries) {
  // Pipelined: one send carrying every Q line, then one response line
  // per query — the server batches what arrives together.
  std::string request;
  for (const recon::SubsetQuery& query : queries) {
    request += FormatQueryLine(client, query);
    request += '\n';
  }
  Status sent = WriteAll(request);
  if (!sent.ok()) return sent;
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<std::string> line = ReadLine();
    if (!line.ok()) return line.status();
    Result<Result<double>> outcome = ParseAnswerLine(*line);
    if (!outcome.ok()) return outcome.status();
    outcomes.push_back(std::move(*outcome));
  }
  return outcomes;
}

#else  // !PSO_SERVICE_HAVE_SOCKETS

Result<std::unique_ptr<SocketTransport>> SocketTransport::Connect(int) {
  return Status::Unimplemented("sockets are unavailable on this platform");
}
SocketTransport::~SocketTransport() = default;
Status SocketTransport::WriteAll(const std::string&) {
  return Status::Unimplemented("sockets are unavailable on this platform");
}
Result<std::string> SocketTransport::ReadLine() {
  return Status::Unimplemented("sockets are unavailable on this platform");
}
Result<ServiceInfo> SocketTransport::Info() {
  return Status::Unimplemented("sockets are unavailable on this platform");
}
Result<std::vector<QueryOutcome>> SocketTransport::IssueBatch(
    uint64_t, const std::vector<recon::SubsetQuery>&) {
  return Status::Unimplemented("sockets are unavailable on this platform");
}

#endif  // PSO_SERVICE_HAVE_SOCKETS

}  // namespace pso::service
