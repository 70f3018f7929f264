// Container round trips of the library's data artifacts: synthetic
// observed cascades (data::trace) and the Digg surrogate degree
// histogram. The contract under test is exactness — save → load → save
// produces byte-identical files, so an archived artifact re-enters any
// pipeline indistinguishable from the in-memory original.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/sir_model.hpp"
#include "data/digg.hpp"
#include "data/trace.hpp"
#include "io/artifacts.hpp"
#include "io/container.hpp"
#include "ode/trajectory.hpp"
#include "util/error.hpp"

#include "temp_path.hpp"

namespace rumor::io {
namespace {

namespace fs = std::filesystem;

using rumor::test::temp_path;

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

data::ObservedCascade sample_cascade() {
  const auto profile =
      core::NetworkProfile::from_histogram(data::digg_surrogate_histogram())
          .coarsened(10);
  core::ModelParams params;
  params.alpha = 0.02;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  data::TraceOptions options;
  options.t_end = 10.0;
  options.sample_dt = 0.5;
  options.noise = 0.05;
  options.seed = 3;
  return data::generate_cascade(profile, params, 0.1, 0.05, options);
}

TEST(IoArtifacts, CascadeRoundTripsExactly) {
  const auto cascade = sample_cascade();
  const std::string path = temp_path("cascade.bin");
  save_cascade(cascade, path);
  const auto loaded = load_cascade(path);
  // Bitwise equality of every double, including the noise — the store
  // is verbatim, not formatted-and-reparsed.
  EXPECT_EQ(cascade.t, loaded.t);
  EXPECT_EQ(cascade.infected_density, loaded.infected_density);
  fs::remove(path);
}

TEST(IoArtifacts, CascadeSaveLoadSaveIsByteIdentical) {
  const auto cascade = sample_cascade();
  const std::string first = temp_path("cascade1.bin");
  const std::string second = temp_path("cascade2.bin");
  save_cascade(cascade, first);
  save_cascade(load_cascade(first), second);
  EXPECT_EQ(file_bytes(first), file_bytes(second));
  fs::remove(first);
  fs::remove(second);
}

TEST(IoArtifacts, DiggHistogramRoundTripsExactly) {
  const auto histogram = data::digg_surrogate_histogram();
  const std::string path = temp_path("digg.bin");
  save_histogram(histogram, path);
  const auto loaded = load_histogram(path);
  EXPECT_EQ(histogram.degrees(), loaded.degrees());
  EXPECT_EQ(histogram.counts(), loaded.counts());
  EXPECT_EQ(histogram.num_nodes(), loaded.num_nodes());

  const std::string again = temp_path("digg2.bin");
  save_histogram(loaded, again);
  EXPECT_EQ(file_bytes(path), file_bytes(again));
  fs::remove(path);
  fs::remove(again);
}

TEST(IoArtifacts, TrajectoryRoundTripsThroughSections) {
  ode::Trajectory trajectory(3);
  trajectory.push_back(0.0, std::vector<double>{1.0, 0.0, -2.5});
  trajectory.push_back(0.5, std::vector<double>{0.9, 0.1, 3.25});
  trajectory.push_back(1.25, std::vector<double>{0.8, 0.2, 0.125});

  ContainerWriter writer("TESTKIND");
  append_trajectory(writer, "traj", trajectory);
  const auto reader = ContainerReader::from_bytes(writer.serialize());
  const auto loaded = read_trajectory(*reader, "traj");

  ASSERT_EQ(loaded.size(), trajectory.size());
  ASSERT_EQ(loaded.dimension(), trajectory.dimension());
  EXPECT_EQ(loaded.times(), trajectory.times());
  for (std::size_t k = 0; k < trajectory.size(); ++k) {
    const auto a = trajectory.state(k);
    const auto b = loaded.state(k);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(IoArtifacts, EmptyTrajectoryRoundTrips) {
  ContainerWriter writer("TESTKIND");
  append_trajectory(writer, "empty", ode::Trajectory(4));
  const auto reader = ContainerReader::from_bytes(writer.serialize());
  const auto loaded = read_trajectory(*reader, "empty");
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.dimension(), 4u);
}

TEST(IoArtifacts, MismatchedCascadeSectionsRejected) {
  ContainerWriter writer(kCascadeKind);
  ByteWriter t;
  t.vec(std::vector<double>{0.0, 1.0});
  writer.add_section("cascade.t", std::move(t));
  ByteWriter density;
  density.vec(std::vector<double>{0.5});
  writer.add_section("cascade.density", std::move(density));
  const std::string path = temp_path("badcascade.bin");
  writer.write_file(path);
  EXPECT_THROW(load_cascade(path), util::IoError);
  fs::remove(path);
}

TEST(IoArtifacts, LoadErrorsNameSectionAndFilePath) {
  // A corrupted section must be attributable: the error names both the
  // section and the file it was loaded from.
  ContainerWriter writer(kCascadeKind);
  ByteWriter t;
  t.u64(100);  // claims 100 doubles, provides none
  writer.add_section("cascade.t", std::move(t));
  ByteWriter density;
  density.vec(std::vector<double>{});
  writer.add_section("cascade.density", std::move(density));
  const std::string path = temp_path("truncated.bin");
  writer.write_file(path);
  try {
    load_cascade(path);
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("section 'cascade.t'"), std::string::npos)
        << message;
    EXPECT_NE(message.find(path), std::string::npos) << message;
  }
  fs::remove(path);
}

TEST(IoArtifacts, InvalidHistogramRejectedAsIoError) {
  // Duplicate degrees pass the CRC but violate DegreeHistogram's
  // invariants; the loader must surface that as a typed IoError.
  ContainerWriter writer(kHistogramKind);
  ByteWriter degrees;
  degrees.vec(std::vector<std::size_t>{3, 3});
  writer.add_section("hist.degrees", std::move(degrees));
  ByteWriter counts;
  counts.vec(std::vector<std::size_t>{5, 7});
  writer.add_section("hist.counts", std::move(counts));
  const std::string path = temp_path("badhist.bin");
  writer.write_file(path);
  EXPECT_THROW(load_histogram(path), util::IoError);
  fs::remove(path);
}

}  // namespace
}  // namespace rumor::io
