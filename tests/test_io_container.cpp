// The versioned binary container: round trips, atomic replacement, and
// — the load-bearing part — that every corruption mode (bad magic,
// version skew, table damage, payload damage, truncation, hostile array
// counts) fails with a typed util::IoError naming the problem instead
// of producing a partial or garbage load.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "io/container.hpp"
#include "util/error.hpp"

#include "temp_path.hpp"

namespace rumor::io {
namespace {

namespace fs = std::filesystem;

using rumor::test::temp_path;

ContainerWriter sample_writer() {
  ContainerWriter writer("TESTKIND");
  ByteWriter a;
  a.u64(7);
  a.f64(2.5);
  writer.add_section("alpha", std::move(a));
  ByteWriter b;
  b.vec(std::vector<std::uint32_t>{1, 2, 3});
  writer.add_section("beta", std::move(b));
  return writer;
}

TEST(IoContainer, RoundTripsSectionsThroughMemory) {
  const auto reader = ContainerReader::from_bytes(sample_writer().serialize());
  EXPECT_EQ(reader->kind(), "TESTKIND");
  EXPECT_EQ(reader->version(), kFormatVersion);
  EXPECT_TRUE(reader->has("alpha"));
  EXPECT_TRUE(reader->has("beta"));
  EXPECT_FALSE(reader->has("gamma"));

  ByteReader a = reader->reader("alpha");
  EXPECT_EQ(a.u64(), 7u);
  EXPECT_EQ(a.f64(), 2.5);
  a.expect_end();

  ByteReader b = reader->reader("beta");
  EXPECT_EQ(b.vec<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3}));
  b.expect_end();
}

TEST(IoContainer, SerializationIsDeterministic) {
  // save → load → save byte-identity for every artifact rests on this.
  EXPECT_EQ(sample_writer().serialize(), sample_writer().serialize());
}

TEST(IoContainer, WritesAtomicallyAndOverwrites) {
  const std::string path = temp_path("atomic.bin");
  sample_writer().write_file(path);
  EXPECT_TRUE(is_container_file(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Overwrite with different content; readers see old-or-new, never mixed.
  ContainerWriter second("TESTKIND");
  ByteWriter payload;
  payload.u64(99);
  second.add_section("alpha", std::move(payload));
  second.write_file(path);

  const auto reader = ContainerReader::open(path);
  ByteReader a = reader->reader("alpha");
  EXPECT_EQ(a.u64(), 99u);
  fs::remove(path);
}

TEST(IoContainer, OpensBothMappedAndHeapPaths) {
  const std::string path = temp_path("mapped.bin");
  sample_writer().write_file(path);
  for (const bool map : {true, false}) {
    const auto reader = ContainerReader::open(path, map);
    ByteReader a = reader->reader("alpha");
    EXPECT_EQ(a.u64(), 7u) << "map=" << map;
  }
  fs::remove(path);
}

TEST(IoContainer, RequireKindRejectsOtherArtifacts) {
  const auto reader = ContainerReader::from_bytes(sample_writer().serialize());
  EXPECT_NO_THROW(reader->require_kind("TESTKIND"));
  EXPECT_THROW(reader->require_kind("GRAPHCSR"), util::IoError);
}

TEST(IoContainer, MissingSectionThrows) {
  const auto reader = ContainerReader::from_bytes(sample_writer().serialize());
  try {
    reader->section("gamma");
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& error) {
    EXPECT_NE(std::string(error.what()).find("gamma"), std::string::npos);
  }
}

TEST(IoContainer, WriterRejectsMisuse) {
  ContainerWriter writer("TESTKIND");
  writer.add_section("dup", std::vector<std::byte>{});
  EXPECT_THROW(writer.add_section("dup", std::vector<std::byte>{}),
               util::InvalidArgument);
  EXPECT_THROW(
      writer.add_section("a-name-that-is-too-long", std::vector<std::byte>{}),
      util::InvalidArgument);
  EXPECT_THROW(ContainerWriter("KIND-TOO-LONG"), util::InvalidArgument);
}

TEST(IoContainer, BadMagicRejected) {
  auto bytes = sample_writer().serialize();
  bytes[0] = std::byte{'X'};
  EXPECT_THROW(ContainerReader::from_bytes(std::move(bytes)), util::IoError);
}

TEST(IoContainer, FutureVersionRejected) {
  auto bytes = sample_writer().serialize();
  bytes[16] = std::byte{0xEE};  // version field (u32 at offset 16)
  EXPECT_THROW(ContainerReader::from_bytes(std::move(bytes)), util::IoError);
}

TEST(IoContainer, TableDamageDetectedAtOpen) {
  auto bytes = sample_writer().serialize();
  bytes[40] ^= std::byte{0x01};  // first table entry's name
  try {
    ContainerReader::from_bytes(std::move(bytes));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& error) {
    EXPECT_NE(std::string(error.what()).find("table CRC"), std::string::npos);
  }
}

TEST(IoContainer, PayloadDamageNamesTheSection) {
  auto bytes = sample_writer().serialize();
  bytes.back() ^= std::byte{0x01};  // last payload byte (section "beta")
  const auto reader = ContainerReader::from_bytes(std::move(bytes));
  EXPECT_NO_THROW(reader->section("alpha"));
  try {
    reader->section("beta");
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
    EXPECT_NE(what.find("CRC"), std::string::npos) << what;
  }
}

TEST(IoContainer, TruncationDetected) {
  const auto full = sample_writer().serialize();
  // Any prefix must fail somewhere — header, table, or section bounds —
  // and must never return a reader that silently misses data.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, std::size_t{39}, std::size_t{60},
        full.size() - 1}) {
    std::vector<std::byte> cut(full.begin(),
                               full.begin() + static_cast<long>(keep));
    EXPECT_THROW(ContainerReader::from_bytes(std::move(cut)), util::IoError)
        << "kept " << keep << " of " << full.size() << " bytes";
  }
}

TEST(IoContainer, HostileArrayCountFailsCleanly) {
  // A section whose element count claims far more data than the payload
  // holds must throw, not overflow the size computation and misread.
  ContainerWriter writer("TESTKIND");
  ByteWriter evil;
  evil.u64(~std::uint64_t{0} / 2);  // count * sizeof(double) would wrap
  writer.add_section("evil", std::move(evil));
  const auto reader = ContainerReader::from_bytes(writer.serialize());
  ByteReader section = reader->reader("evil");
  EXPECT_THROW(section.vec<double>(), util::IoError);
}

TEST(IoContainer, TrailingBytesCaughtByExpectEnd) {
  ContainerWriter writer("TESTKIND");
  ByteWriter payload;
  payload.u64(1);
  payload.u64(2);
  writer.add_section("long", std::move(payload));
  const auto reader = ContainerReader::from_bytes(writer.serialize());
  ByteReader section = reader->reader("long");
  section.u64();
  EXPECT_THROW(section.expect_end(), util::IoError);
}

TEST(IoContainer, IsContainerFileRejectsTextAndMissing) {
  const std::string path = temp_path("textfile.txt");
  std::ofstream(path) << "0 1\n1 2\n";
  EXPECT_FALSE(is_container_file(path));
  EXPECT_FALSE(is_container_file(temp_path("does-not-exist")));
  fs::remove(path);
}

}  // namespace
}  // namespace rumor::io
