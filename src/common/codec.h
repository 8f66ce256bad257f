// The one byte codec behind every persisted format (DESIGN.md §8): FNV-1a,
// little-endian field writer and bounds-checked reader, the checksummed
// envelope that the four on-disk containers share (LYRASNAP, LYRASHRD,
// LYRAFED_, LYRAPOL_), and whole-file read / durable atomic write.
//
// Envelope layout (all integers little-endian):
//   magic  8 bytes (identifies the format)
//   u32    version (decoding is strict: any other value is rejected)
//   u64    payload size
//   bytes  payload (the format's own grammar, written with ByteWriter)
//   u64    FNV-1a of the payload (integrity gate)
#ifndef SRC_COMMON_CODEC_H_
#define SRC_COMMON_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"

namespace lyra {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ull;

// 64-bit FNV-1a of `bytes`, continuing from `hash`; the default starts a
// fresh hash, passing a previous result extends it.
std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash = kFnv1aOffset);

// FNV-1a over the 8 little-endian bytes of `value`.
std::uint64_t Fnv1aU64(std::uint64_t value, std::uint64_t hash = kFnv1aOffset);

// Appends little-endian fields; doubles are stored as IEEE-754 bit patterns.
class ByteWriter {
 public:
  // The bytes as they are, with no length framing.
  void Raw(std::string_view s) { bytes_.append(s); }
  void U8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v);
  // u32 length, then the bytes.
  void Str(std::string_view s);
  // u64 length, then the bytes (nested file images outgrow the u32 framing).
  void Blob(std::string_view s);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// Reads what ByteWriter wrote. Every read is bounds-checked, and the first
// failure is sticky: later reads return zero values and Finish() reports
// it, so a decoder reads its whole grammar and checks once. Corrupt input
// therefore surfaces as DataLoss, never as an out-of-bounds access.
class ByteReader {
 public:
  // `origin` (a path, or a tag such as "shard 2") ends every error message.
  ByteReader(std::string_view bytes, std::string_view origin);

  std::uint8_t U8();
  bool Bool() { return U8() != 0; }
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  std::string Str();
  std::string Blob();

  // True when `count` items of at least `min_bytes` each fit in the unread
  // input; fails the reader otherwise. Check every count read from the
  // input this way before it sizes an allocation or a loop.
  bool Fits(std::uint64_t count, std::size_t min_bytes);

  // Records a grammar violation (unknown enum value, implausible count);
  // only the first failure is kept.
  void Fail(const std::string& message);

  bool ok() const { return status_.ok(); }

  // Ok when every read succeeded and the input was consumed exactly.
  Status Finish() const;

 private:
  // Start of the next `n` bytes, or nullptr (and a failure) if absent.
  const char* Take(std::size_t n);

  std::string_view bytes_;
  std::string origin_;
  std::size_t pos_ = 0;
  Status status_;
};

// One persisted format: its 8-byte magic and the only version it accepts.
struct EnvelopeFormat {
  std::string_view magic;
  std::uint32_t version = 0;
};

// The complete envelope around `payload`.
std::string Seal(const EnvelopeFormat& format, std::string_view payload);

// Verifies magic, version, length framing (nothing may follow the
// checksum) and checksum, and returns the payload as a view into `file`.
// InvalidArgument on a wrong magic or version, DataLoss otherwise.
StatusOr<std::string_view> Open(const EnvelopeFormat& format,
                                std::string_view file, std::string_view origin);

bool HasMagic(const EnvelopeFormat& format, std::string_view file);

// NotFound when `path` cannot be opened, DataLoss on a read error.
StatusOr<std::string> ReadFile(const std::string& path);

// Writes `bytes` to "<path>.tmp", fsyncs it, renames it over `path`, then
// fsyncs the parent directory, so a crash or power cut leaves either the
// previous file or the complete new one, never a torn or empty file.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace lyra

#endif  // SRC_COMMON_CODEC_H_
