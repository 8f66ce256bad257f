// The shared byte codec (src/common/codec.h) and the one checksummed
// envelope both persisted formats use. The corruption matrix and the
// seeded mutation fuzzer run once per format: LYRASNAP (one engine's image,
// decoded as the snapshot file carries it) and LYRAFED_ (the snapshot file:
// clusters of LYRASNAP images). Under the ASan build the fuzzer doubles as
// the memory-safety check of every payload decoder.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/codec.h"
#include "src/common/rng.h"
#include "src/svc/snapshot.h"

namespace lyra {
namespace {

std::string TempPath(const std::string& tag) {
  return testing::TempDir() + "/lyra_codec_" + tag + "_" +
         std::to_string(::getpid());
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    std::fclose(f);
  }
  return f != nullptr;
}

TEST(Codec, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ull);
  // Continuing a hash equals hashing the concatenation.
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo")), Fnv1a("foobar"));
  // Fnv1aU64 folds the value's little-endian bytes.
  ByteWriter le;
  le.U64(0x0123456789abcdefull);
  EXPECT_EQ(Fnv1aU64(0x0123456789abcdefull), Fnv1a(le.bytes()));
}

TEST(Codec, ReaderRoundTripsWriterAndFailsSticky) {
  ByteWriter out;
  out.U8(0xab);
  out.Bool(true);
  out.U32(0xdeadbeef);
  out.U64(0x0102030405060708ull);
  out.I64(-42);
  out.F64(-0.125);
  out.Str("tenant-a");
  out.Blob(std::string("\0bin\0", 5));
  const std::string bytes = out.bytes();

  ByteReader in(bytes, "test");
  EXPECT_EQ(in.U8(), 0xab);
  EXPECT_TRUE(in.Bool());
  EXPECT_EQ(in.U32(), 0xdeadbeefu);
  EXPECT_EQ(in.U64(), 0x0102030405060708ull);
  EXPECT_EQ(in.I64(), -42);
  EXPECT_EQ(in.F64(), -0.125);
  EXPECT_EQ(in.Str(), "tenant-a");
  EXPECT_EQ(in.Blob(), std::string("\0bin\0", 5));
  EXPECT_TRUE(in.Finish().ok());

  // Every strict prefix fails, and the first failure sticks: later reads
  // yield zero values instead of reading past the end.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader short_in(std::string_view(bytes).substr(0, cut), "prefix");
    short_in.U8();
    short_in.Bool();
    short_in.U32();
    short_in.U64();
    short_in.I64();
    short_in.F64();
    short_in.Str();
    short_in.Blob();
    EXPECT_FALSE(short_in.ok()) << "cut=" << cut;
    EXPECT_EQ(short_in.U64(), 0u);
    EXPECT_EQ(short_in.Finish().code(), StatusCode::kDataLoss);
    EXPECT_NE(short_in.Finish().message().find("prefix"), std::string::npos);
  }

  // Unread input is an error too.
  ByteReader partial(bytes, "test");
  partial.U8();
  EXPECT_EQ(partial.Finish().code(), StatusCode::kDataLoss);

  // A count the remaining bytes cannot hold is refused before it is used.
  ByteReader counted(bytes, "test");
  EXPECT_TRUE(counted.Fits(bytes.size(), 1));
  EXPECT_FALSE(counted.Fits(bytes.size() + 1, 1));
  EXPECT_FALSE(counted.ok());

  // A u64 blob length far beyond the input fails cleanly.
  ByteWriter huge;
  huge.U64(~0ull);
  ByteReader blob(huge.bytes(), "test");
  EXPECT_EQ(blob.Blob(), "");
  EXPECT_FALSE(blob.ok());
}

TEST(Codec, WriteFileAtomicReplacesTheFileAndLeavesNoTemporary) {
  const std::string path = TempPath("atomic");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, std::string("second\0", 7)).ok());
  StatusOr<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read.value(), std::string("second\0", 7));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());

  EXPECT_EQ(ReadFile(path).status().code(), StatusCode::kNotFound);
  const std::string orphan = TempPath("no_such_dir") + "/file";
  EXPECT_FALSE(WriteFileAtomic(orphan, "x").ok());
  EXPECT_FALSE(FileExists(orphan));
}

// --- One matrix for every persisted format -----------------------------------

svc::ServiceSnapshot SampleSnapshot() {
  svc::ServiceSnapshot snapshot;
  snapshot.config.scheduler = "lyra";
  snapshot.config.faults = true;
  snapshot.config.seed = 99;
  svc::LoggedCommand submit;
  submit.kind = svc::CommandKind::kSubmit;
  submit.stamp = 10.0;
  submit.spec.max_workers = 4;
  submit.spec.total_work = 3600.0;
  svc::LoggedCommand cancel;
  cancel.kind = svc::CommandKind::kCancel;
  cancel.stamp = 20.0;
  cancel.job = 0;
  svc::LoggedCommand drain;
  drain.kind = svc::CommandKind::kDrain;
  drain.stamp = 30.0;
  snapshot.commands = {submit, cancel, submit, drain};
  snapshot.horizon = 30.0;
  return snapshot;
}

// An inference and two training clusters, so the cases below reach both
// kinds and every framed image.
svc::FedSnapshot SampleFedSnapshot() {
  const std::string image = svc::EncodeSnapshot(SampleSnapshot());
  svc::FedSnapshot fed;
  fed.submit_seq = 5;
  fed.ledger_hash = 0x1234;
  fed.clusters = {{"infer0", 0, image}, {"train0", 1, image},
                  {"train1", 1, image}};
  return fed;
}

struct FormatCase {
  const char* name;
  EnvelopeFormat format;
  std::string (*encode)();
  Status (*save)(const std::string& path);
  Status (*decode)(const std::string& bytes);
  Status (*load)(const std::string& path);
};

// Names the parameter in test output; ctest lists each case under it.
void PrintTo(const FormatCase& f, std::ostream* os) { *os << f.name; }

const FormatCase kFormats[] = {
    {"LYRASNAP", svc::kSnapshotFormat,
     [] { return svc::EncodeSnapshot(SampleSnapshot()); },
     [](const std::string& path) {
       return WriteFileAtomic(path, svc::EncodeSnapshot(SampleSnapshot()));
     },
     [](const std::string& bytes) { return svc::DecodeSnapshot(bytes, "test").status(); },
     [](const std::string& path) {
       StatusOr<std::string> image = ReadFile(path);
       return image.ok() ? svc::DecodeSnapshot(image.value(), path).status()
                         : image.status();
     }},
    {"LYRAFED", svc::kFedSnapshotFormat,
     [] { return svc::EncodeFedSnapshot(SampleFedSnapshot()); },
     [](const std::string& path) {
       return WriteFileAtomic(path, svc::EncodeFedSnapshot(SampleFedSnapshot()));
     },
     [](const std::string& bytes) { return svc::DecodeFedSnapshot(bytes, "test").status(); },
     [](const std::string& path) { return svc::LoadFedSnapshot(path).status(); }},
};

// A fleet holds at most 64 engines, one per cluster, and the cluster count
// is bounded by the bytes left before anything is reserved: a count the
// payload cannot hold is DataLoss, however plausible.
TEST(Codec, FleetEngineCountIsBoundedByThePayload) {
  const std::string image = svc::EncodeSnapshot(SampleSnapshot());
  // A container declaring `declared` training clusters and holding `held`.
  const auto fleet = [&image](std::uint32_t declared, std::uint32_t held) {
    ByteWriter payload;
    payload.U64(0);  // submit_seq
    payload.U64(0);  // ledger_hash
    payload.U32(declared);
    for (std::uint32_t c = 0; c < held; ++c) {
      payload.Str("train" + std::to_string(c));
      payload.U8(1);
      payload.Blob(image);
    }
    return svc::DecodeFedSnapshot(Seal(svc::kFedSnapshotFormat, payload.bytes()),
                                  "test");
  };
  ASSERT_TRUE(fleet(64, 64).ok());
  EXPECT_EQ(fleet(64, 64).value().clusters[63].image, image);
  const auto fails_with = [](const Status& status, const char* text) {
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_NE(status.message().find(text), std::string::npos)
        << status.message();
  };
  fails_with(fleet(0, 0).status(), "implausible cluster count 0");
  fails_with(fleet(65, 65).status(), "implausible cluster count 65");
  fails_with(fleet(0xffffffffu, 0).status(), "implausible cluster count");
  fails_with(fleet(64, 1).status(), "exceeds the payload");
}

class EnvelopeTest : public testing::TestWithParam<FormatCase> {};

TEST_P(EnvelopeTest, CorruptionIsDetected) {
  const FormatCase& f = GetParam();
  const std::string bytes = f.encode();
  ASSERT_EQ(bytes.substr(0, 8), f.format.magic);
  ASSERT_TRUE(f.decode(bytes).ok()) << f.decode(bytes).message();

  // Save writes exactly the encoded image, and Load reads it back.
  const std::string path = TempPath(f.name);
  ASSERT_TRUE(f.save(path).ok());
  StatusOr<std::string> saved = ReadFile(path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved.value(), bytes);
  EXPECT_TRUE(f.load(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(f.load(path).code(), StatusCode::kNotFound);

  // Any flipped byte: checksum, framing, magic or version gate.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x5a);
    EXPECT_FALSE(f.decode(flipped).ok()) << "byte " << i;
  }
  // Every truncation, and anything appended after the checksum.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(f.decode(bytes.substr(0, cut)).ok()) << "cut=" << cut;
  }
  EXPECT_EQ(f.decode(bytes + "junk").code(), StatusCode::kDataLoss);

  // Wrong magic and a future version are refused as such, not misparsed.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(f.decode(bad_magic).code(), StatusCode::kInvalidArgument);
  std::string bad_version = bytes;
  bad_version[8] = 0x7f;
  const Status future = f.decode(bad_version);
  EXPECT_EQ(future.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(future.message().find("version"), std::string::npos);

  // A payload damaged before sealing passes the checksum, so the payload
  // grammar itself must reject it: here, one byte short.
  StatusOr<std::string_view> payload = Open(f.format, bytes, "test");
  ASSERT_TRUE(payload.ok());
  const std::string_view body = payload.value();
  EXPECT_EQ(f.decode(Seal(f.format, body.substr(0, body.size() - 1))).code(),
            StatusCode::kDataLoss);
}

// Seeded mutation fuzzer. Raw mutations must always be rejected; payload
// mutations that are sealed again reach the format's payload decoder, which
// must return an error or a value, never crash or allocate without bound.
TEST_P(EnvelopeTest, MutationsFailCleanly) {
  const FormatCase& f = GetParam();
  const std::string bytes = f.encode();
  StatusOr<std::string_view> opened = Open(f.format, bytes, "test");
  ASSERT_TRUE(opened.ok());
  const std::string payload(opened.value());

  Rng rng(0xf022 + payload.size());
  const auto mutate = [&rng](std::string data) {
    const int edits = static_cast<int>(rng.UniformInt(1, 4));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(data.size())));
      switch (rng.UniformInt(0, 4)) {
        case 0:  // flip one bit
          if (at < data.size()) {
            data[at] = static_cast<char>(data[at] ^ (1 << rng.UniformInt(0, 7)));
          }
          break;
        case 1:  // truncate
          data.resize(at);
          break;
        case 2:  // insert random bytes
          for (std::int64_t n = rng.UniformInt(1, 8); n > 0; --n) {
            data.insert(data.begin() + static_cast<std::ptrdiff_t>(at),
                        static_cast<char>(rng.UniformInt(0, 255)));
          }
          break;
        default: {  // overwrite a word with an extreme value (counts, lengths)
          const char fill = rng.NextBernoulli(0.5) ? '\xff' : '\0';
          for (std::size_t i = at; i < data.size() && i < at + 4; ++i) {
            data[i] = fill;
          }
          break;
        }
      }
    }
    return data;
  };

  constexpr int kIterations = 2000;
  int payload_accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::string raw = mutate(bytes);
    if (raw != bytes) {
      EXPECT_FALSE(f.decode(raw).ok()) << "iteration " << iter;
    }
    if (f.decode(Seal(f.format, mutate(payload))).ok()) {
      ++payload_accepted;
    }
  }
  // Most payload mutations break the grammar; the few accepted ones only
  // changed field values.
  EXPECT_LT(payload_accepted, kIterations);
}

INSTANTIATE_TEST_SUITE_P(Formats, EnvelopeTest, testing::ValuesIn(kFormats));

}  // namespace
}  // namespace lyra
