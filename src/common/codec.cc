#include "src/common/codec.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace lyra {
namespace {

constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;
constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = kMagicBytes + 4 + 8;
constexpr std::size_t kChecksumBytes = 8;

template <typename T>
T LoadLittleEndian(const char* at) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(at[i])) << (8 * i);
  }
  return v;
}

// Full write of `bytes` to `fd`, retrying short writes and EINTR.
bool WriteAll(int fd, std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// fsync of the directory holding `path`, which makes a rename into it
// durable. Filesystems that cannot sync a directory report EINVAL; there is
// nothing more to do on those.
bool SyncParentDirectory(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  const bool synced = ::fsync(fd) == 0 || errno == EINVAL;
  ::close(fd);
  return synced;
}

}  // namespace

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

std::uint64_t Fnv1aU64(std::uint64_t value, std::uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= kFnv1aPrime;
  }
  return hash;
}

// --- ByteWriter --------------------------------------------------------------

void ByteWriter::U32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void ByteWriter::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void ByteWriter::F64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  bytes_.append(s);
}

void ByteWriter::Blob(std::string_view s) {
  U64(s.size());
  bytes_.append(s);
}

// --- ByteReader --------------------------------------------------------------

ByteReader::ByteReader(std::string_view bytes, std::string_view origin)
    : bytes_(bytes), origin_(origin) {}

const char* ByteReader::Take(std::size_t n) {
  if (!ok()) {
    return nullptr;
  }
  if (bytes_.size() - pos_ < n) {
    Fail("payload truncated");
    return nullptr;
  }
  const char* at = bytes_.data() + pos_;
  pos_ += n;
  return at;
}

std::uint8_t ByteReader::U8() {
  const char* at = Take(1);
  return at == nullptr ? 0 : static_cast<std::uint8_t>(*at);
}

std::uint32_t ByteReader::U32() {
  const char* at = Take(4);
  return at == nullptr ? 0 : LoadLittleEndian<std::uint32_t>(at);
}

std::uint64_t ByteReader::U64() {
  const char* at = Take(8);
  return at == nullptr ? 0 : LoadLittleEndian<std::uint64_t>(at);
}

double ByteReader::F64() {
  const std::uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::Str() {
  const std::uint32_t length = U32();
  const char* at = Take(length);
  return at == nullptr ? std::string() : std::string(at, length);
}

std::string ByteReader::Blob() {
  const std::uint64_t length = U64();
  if (!Fits(length, 1)) {
    return std::string();
  }
  return std::string(Take(static_cast<std::size_t>(length)),
                     static_cast<std::size_t>(length));
}

bool ByteReader::Fits(std::uint64_t count, std::size_t min_bytes) {
  if (!ok()) {
    return false;
  }
  if (min_bytes > 0 && count > (bytes_.size() - pos_) / min_bytes) {
    Fail("count " + std::to_string(count) + " exceeds the payload");
    return false;
  }
  return true;
}

void ByteReader::Fail(const std::string& message) {
  if (ok()) {
    status_ = Status::DataLoss(message + ": " + origin_);
  }
}

Status ByteReader::Finish() const {
  if (ok() && pos_ != bytes_.size()) {
    return Status::DataLoss("trailing bytes in payload: " + origin_);
  }
  return status_;
}

// --- Envelope ----------------------------------------------------------------

std::string Seal(const EnvelopeFormat& format, std::string_view payload) {
  LYRA_CHECK_EQ(format.magic.size(), kMagicBytes);
  ByteWriter file;
  file.Raw(format.magic);
  file.U32(format.version);
  file.U64(payload.size());
  file.Raw(payload);
  file.U64(Fnv1a(payload));
  return file.Take();
}

StatusOr<std::string_view> Open(const EnvelopeFormat& format,
                                std::string_view file, std::string_view origin) {
  const std::string magic(format.magic);
  const std::string where = ": " + std::string(origin);
  if (file.size() < kHeaderBytes || !HasMagic(format, file)) {
    return Status::InvalidArgument("not a " + magic + " file" + where);
  }
  const auto version = LoadLittleEndian<std::uint32_t>(file.data() + kMagicBytes);
  if (version != format.version) {
    return Status::InvalidArgument("unsupported " + magic + " version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(format.version) + ")" + where);
  }
  const auto size = LoadLittleEndian<std::uint64_t>(file.data() + kMagicBytes + 4);
  const std::size_t room = file.size() - kHeaderBytes;
  if (room < kChecksumBytes || size > room - kChecksumBytes) {
    return Status::DataLoss(magic + " file truncated" + where);
  }
  if (size < room - kChecksumBytes) {
    return Status::DataLoss(magic + " file has trailing bytes" + where);
  }
  const std::string_view payload = file.substr(kHeaderBytes, size);
  const auto stored = LoadLittleEndian<std::uint64_t>(file.data() + kHeaderBytes + size);
  if (Fnv1a(payload) != stored) {
    return Status::DataLoss(magic + " checksum mismatch" + where);
  }
  return payload;
}

bool HasMagic(const EnvelopeFormat& format, std::string_view file) {
  return file.substr(0, kMagicBytes) == format.magic;
}

// --- Files -------------------------------------------------------------------

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("cannot open: " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    return Status::DataLoss("read error: " + path);
  }
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open for writing: " + tmp);
  }
  const bool written = WriteAll(fd, bytes) && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!written || !closed) {
    ::unlink(tmp.c_str());
    return Status::Internal("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed: " + path);
  }
  if (!SyncParentDirectory(path)) {
    return Status::Internal("cannot sync the directory of " + path);
  }
  return Status::Ok();
}

}  // namespace lyra
