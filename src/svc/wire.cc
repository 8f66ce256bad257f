#include "src/svc/wire.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace lyra::svc {
namespace {

std::uint32_t GetU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (static_cast<std::uint32_t>(u[0]) << 24) |
         (static_cast<std::uint32_t>(u[1]) << 16) |
         (static_cast<std::uint32_t>(u[2]) << 8) | static_cast<std::uint32_t>(u[3]);
}

// Reads exactly `size` bytes. Returns the byte count read before EOF (so the
// caller can distinguish a clean close from a truncated frame).
StatusOr<std::size_t> ReadFull(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Unavailable(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      return got;
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

void EncodeFrameHeader(std::uint32_t payload_size, char out[4]) {
  out[0] = static_cast<char>((payload_size >> 24) & 0xff);
  out[1] = static_cast<char>((payload_size >> 16) & 0xff);
  out[2] = static_cast<char>((payload_size >> 8) & 0xff);
  out[3] = static_cast<char>(payload_size & 0xff);
}

std::string EncodeFrame(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 4);
  AppendFrame(payload, out);
  return out;
}

void AppendFrame(const std::string& payload, std::string& out) {
  char header[4];
  EncodeFrameHeader(static_cast<std::uint32_t>(payload.size()), header);
  out.append(header, sizeof(header));
  out += payload;
}

Status WriteAllBytes(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    // send with MSG_NOSIGNAL, not write: a disconnected peer must surface as
    // EPIPE, not kill the daemon with SIGPIPE.
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Unavailable(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload exceeds 1 MiB");
  }
  const std::string framed = EncodeFrame(payload);
  return WriteAllBytes(fd, framed.data(), framed.size());
}

StatusOr<std::string> ReadFrame(int fd) {
  char header[4];
  StatusOr<std::size_t> got = ReadFull(fd, header, sizeof(header));
  if (!got.ok()) {
    return got.status();
  }
  if (got.value() == 0) {
    return Status::Unavailable("eof");
  }
  if (got.value() < sizeof(header)) {
    return Status::DataLoss("connection closed mid-header");
  }
  const std::uint32_t length = GetU32(header);
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument("frame length " + std::to_string(length) +
                                   " exceeds 1 MiB cap");
  }
  std::string payload(length, '\0');
  got = ReadFull(fd, payload.data(), length);
  if (!got.ok()) {
    return got.status();
  }
  if (got.value() < length) {
    return Status::DataLoss("connection closed mid-frame");
  }
  return payload;
}

void FrameDecoder::Append(const char* data, std::size_t size) {
  // Compact once consumed bytes dominate, so the buffer stays bounded.
  if (consumed_ > 0 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

StatusOr<bool> FrameDecoder::Next(std::string* payload) {
  if (buffered() < 4) {
    return false;
  }
  const std::uint32_t length = GetU32(buffer_.data() + consumed_);
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument("frame length exceeds 1 MiB cap");
  }
  if (buffered() < 4 + static_cast<std::size_t>(length)) {
    return false;
  }
  payload->assign(buffer_, consumed_ + 4, length);
  consumed_ += 4 + length;
  return true;
}

StatusOr<int> ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status =
        Status::Unavailable("bind " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const Status status =
        Status::Unavailable("listen " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

StatusOr<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status =
        Status::Unavailable("connect " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

StatusOr<int> ListenTcp(const std::string& host, int port, int* bound_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::Unavailable(
        "bind " + host + ":" + std::to_string(port) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const Status status = Status::Unavailable(
        "listen " + host + ":" + std::to_string(port) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      const Status status =
          Status::Unavailable(std::string("getsockname: ") + std::strerror(errno));
      ::close(fd);
      return status;
    }
    *bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  return fd;
}

StatusOr<int> ConnectTcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::Unavailable(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

StatusOr<int> ConnectEndpoint(const std::string& unix_path,
                              const std::string& tcp_host, int tcp_port) {
  return !unix_path.empty() ? ConnectUnix(unix_path)
                            : ConnectTcp(tcp_host, tcp_port);
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Unavailable(std::string("fcntl O_NONBLOCK: ") +
                               std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace lyra::svc
