// Wire protocol for the online scheduler service.
//
// Frames are a 4-byte big-endian payload length followed by that many bytes
// of UTF-8 JSON. The payload cap matches JsonParseLimits::Untrusted()
// (1 MiB): a frame the parser would reject is refused at the framing layer,
// before any allocation proportional to the claimed length. Helpers here do
// blocking fd I/O with EINTR retry; FrameDecoder is the incremental variant
// for callers that manage their own buffers (the epoll event loop and the
// load generator's receiver thread).
//
// All socket writes use send(2)/sendmsg(2) with MSG_NOSIGNAL: a peer that
// disconnects with a reply in flight produces an EPIPE error return, never a
// process-killing SIGPIPE (svc_fastpath_test pins this).
#ifndef SRC_SVC_WIRE_H_
#define SRC_SVC_WIRE_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace lyra::svc {

// Maximum frame payload, aligned with the untrusted JSON parse limit.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

// Writes the 4-byte big-endian length prefix for `payload_size` into `out`.
void EncodeFrameHeader(std::uint32_t payload_size, char out[4]);

// Length-prefixes `payload` for transmission.
std::string EncodeFrame(const std::string& payload);

// Appends the length-prefixed frame to `out` (the batched-sender variant:
// many frames accumulate into one buffer and leave in one syscall).
void AppendFrame(const std::string& payload, std::string& out);

// Writes one frame to `fd`, retrying short writes and EINTR.
Status WriteFrame(int fd, const std::string& payload);

// Writes `size` raw bytes to `fd` (already-framed data), retrying short
// writes and EINTR. MSG_NOSIGNAL like every other send path here.
Status WriteAllBytes(int fd, const char* data, std::size_t size);

// Reads one frame from `fd`. Unavailable("eof") on a clean close at a frame
// boundary, DataLoss on a mid-frame close, InvalidArgument on an oversized
// length prefix.
StatusOr<std::string> ReadFrame(int fd);

// Incremental decoder: feed bytes as they arrive, pop complete payloads.
class FrameDecoder {
 public:
  void Append(const char* data, std::size_t size);

  // Extracts the next complete payload into `payload`. Returns false when no
  // complete frame is buffered. Fails on an oversized length prefix (the
  // stream is unrecoverable after that).
  StatusOr<bool> Next(std::string* payload);

  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
};

// Pending-connection queue length of every listener.
inline constexpr int kListenBacklog = 128;

// Unix-domain socket helpers. Paths must fit sockaddr_un (~107 chars).
StatusOr<int> ListenUnix(const std::string& path);
StatusOr<int> ConnectUnix(const std::string& path);

// TCP (IPv4) helpers. `port` 0 binds an ephemeral port; ListenTcp reports
// the actual port through `bound_port` (when non-null). Listeners get
// SO_REUSEADDR; connected sockets get TCP_NODELAY (frames are small and
// latency-sensitive, Nagle would batch them against us).
StatusOr<int> ListenTcp(const std::string& host, int port, int* bound_port = nullptr);
StatusOr<int> ConnectTcp(const std::string& host, int port);

// Connects to whichever endpoint is configured: the Unix path when
// non-empty, else TCP host:port. The shared client-side policy of the load
// client and the CLI tools, in one place.
StatusOr<int> ConnectEndpoint(const std::string& unix_path,
                              const std::string& tcp_host, int tcp_port);

// Puts `fd` into non-blocking mode (the event loop's sockets).
Status SetNonBlocking(int fd);

}  // namespace lyra::svc

#endif  // SRC_SVC_WIRE_H_
