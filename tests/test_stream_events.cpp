#include "stream/event.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "stream/live_graph.hpp"
#include "util/error.hpp"

#include "temp_path.hpp"

namespace rumor::stream {
namespace {

std::vector<Event> sample_events() {
  std::vector<Event> events;
  Event add;
  add.kind = EventKind::kEdgeAdd;
  add.u = 3;
  add.v = 9;
  events.push_back(add);
  Event del;
  del.kind = EventKind::kEdgeDel;
  del.u = 9;
  del.v = 3;
  events.push_back(del);
  Event seed;
  seed.kind = EventKind::kSeedInfect;
  seed.nodes = {1, 4, 7};
  events.push_back(seed);
  Event observe;
  observe.kind = EventKind::kObservePrevalence;
  observe.has_t = true;
  observe.has_value = true;
  observe.t = 2.5;
  observe.value = 0.125;
  events.push_back(observe);
  Event self_observe;  // engine substitutes time + census prevalence
  self_observe.kind = EventKind::kObservePrevalence;
  events.push_back(self_observe);
  Event drift;
  drift.kind = EventKind::kSetParams;
  drift.lambda_scale = 1.75;
  events.push_back(drift);
  Event tick;
  tick.kind = EventKind::kTick;
  tick.count = 4;
  events.push_back(tick);
  return events;
}

TEST(EventJson, RoundTripsEveryKind) {
  for (const Event& event : sample_events()) {
    const std::string line = event_to_json(event);
    EXPECT_EQ(parse_event_json(line), event) << line;
  }
}

TEST(EventJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_event_json("not json"), util::IoError);
  EXPECT_THROW(parse_event_json("{\"ev\":\"bogus\"}"), util::IoError);
  EXPECT_THROW(parse_event_json("{\"ev\":\"edge_add\",\"u\":1}"),
               util::IoError);  // missing v
  EXPECT_THROW(parse_event_json("{\"u\":1,\"v\":2}"), util::IoError);
}

TEST(EventLog, BinaryAndJsonStreamsRoundTripAndAutoDetect) {
  const std::vector<Event> events = sample_events();
  for (const auto format : {EventLogWriter::Format::kJsonLines,
                            EventLogWriter::Format::kBinary}) {
    std::stringstream stream;
    EventLogWriter writer(stream, format);
    for (const Event& event : events) writer.write(event);
    EXPECT_EQ(writer.written(), events.size());

    EventLogReader reader(stream);
    EXPECT_EQ(reader.binary(), format == EventLogWriter::Format::kBinary);
    std::vector<Event> decoded;
    Event event;
    while (reader.next(event)) decoded.push_back(event);
    EXPECT_EQ(decoded, events);
  }
}

TEST(EventLog, TruncatedBinaryRecordThrows) {
  std::stringstream stream;
  EventLogWriter writer(stream, EventLogWriter::Format::kBinary);
  writer.write(sample_events()[0]);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() - 2);
  std::stringstream truncated(bytes);
  EventLogReader reader(truncated);
  Event event;
  EXPECT_THROW(reader.next(event), util::IoError);
}

TEST(EventLog, FileRoundTrip) {
  const std::string path = test::temp_path("events.bin");
  const std::vector<Event> events = sample_events();
  save_event_log(events, path, EventLogWriter::Format::kBinary);
  EXPECT_EQ(load_event_log(path), events);
  std::remove(path.c_str());
}

// --- LiveGraph --------------------------------------------------------

TEST(LiveGraph, CanonicalCsrIsInsertionOrderIndependent) {
  LiveGraph a(6, /*directed=*/false);
  LiveGraph b(6, /*directed=*/false);
  EXPECT_TRUE(a.add_edge(0, 1));
  EXPECT_TRUE(a.add_edge(1, 2));
  EXPECT_TRUE(a.add_edge(4, 2));
  // Same edge set, different order and direction of insertion, plus a
  // remove/re-add cycle.
  EXPECT_TRUE(b.add_edge(2, 4));
  EXPECT_TRUE(b.add_edge(2, 1));
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_TRUE(b.remove_edge(1, 2));
  EXPECT_TRUE(b.add_edge(1, 2));

  EXPECT_EQ(a.edges(), b.edges());
  const graph::Graph ga = a.build_csr();
  const graph::Graph gb = b.build_csr();
  ASSERT_EQ(ga.num_nodes(), gb.num_nodes());
  ASSERT_EQ(ga.num_arcs(), gb.num_arcs());
  for (std::size_t v = 0; v < ga.num_nodes(); ++v) {
    const auto na = ga.neighbors(static_cast<graph::NodeId>(v));
    const auto nb = gb.neighbors(static_cast<graph::NodeId>(v));
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

TEST(LiveGraph, DuplicateAndAbsentEdgesAreNoOps) {
  LiveGraph g(4, /*directed=*/false);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // same undirected edge
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.remove_edge(2, 3));
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(LiveGraph, RejectsSelfLoopsAndOutOfRangeIds) {
  LiveGraph g(4, /*directed=*/true);
  EXPECT_THROW(g.add_edge(1, 1), util::InvalidArgument);
  EXPECT_THROW(g.add_edge(0, 4), util::InvalidArgument);
  EXPECT_THROW(g.remove_edge(7, 0), util::InvalidArgument);
}

TEST(LiveGraph, DirectedEdgesAreOneWay) {
  LiveGraph g(3, /*directed=*/true);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_TRUE(g.add_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 2u);
}

}  // namespace
}  // namespace rumor::stream
