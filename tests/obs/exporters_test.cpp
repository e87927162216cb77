// Exporter golden output: Prometheus text exposition and JSONL records,
// plus the JsonlWriter file round-trip.
#include "obs/exporters.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace epto::obs {
namespace {

TEST(EscapeTest, EscapesQuotesBackslashesAndNewlines) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb"), "a\\nb");
  // Flight-dump reasons and bench labels are free-form: tabs and other
  // control characters must not leak raw into a JSON line either.
  EXPECT_EQ(escape("a\tb"), "a\\tb");
  EXPECT_EQ(escape("a\x01z"), "a\\u0001z");
}

TEST(PrometheusTextTest, GoldenCounterGaugeHistogram) {
  Registry registry;
  registry.counter("epto_delivered_total", {{"node", "0"}}).inc(5);
  registry.gauge("epto_buffer_size").set(17);
  Histogram& h = registry.histogram("epto_ball_size", {}, {1.0, 4.0});
  h.observe(1.0);
  h.observe(3.0);
  h.observe(9.0);

  const std::string text = prometheusText(registry.snapshot());
  const std::string expected =
      "# TYPE epto_delivered_total counter\n"
      "epto_delivered_total{node=\"0\"} 5\n"
      "# TYPE epto_buffer_size gauge\n"
      "epto_buffer_size 17\n"
      "# TYPE epto_ball_size histogram\n"
      "epto_ball_size_bucket{le=\"1\"} 1\n"
      "epto_ball_size_bucket{le=\"4\"} 2\n"
      "epto_ball_size_bucket{le=\"+Inf\"} 3\n"
      "epto_ball_size_sum 13\n"
      "epto_ball_size_count 3\n";
  EXPECT_EQ(text, expected);
}

TEST(PrometheusTextTest, GroupsFamiliesAcrossInterleavedRegistration) {
  Registry registry;
  registry.counter("epto_a_total", {{"node", "0"}}).inc(1);
  registry.counter("epto_b_total").inc(2);
  registry.counter("epto_a_total", {{"node", "1"}}).inc(3);

  const std::string text = prometheusText(registry.snapshot());
  // One TYPE line per family; both epto_a samples under the first.
  const std::string expected =
      "# TYPE epto_a_total counter\n"
      "epto_a_total{node=\"0\"} 1\n"
      "epto_a_total{node=\"1\"} 3\n"
      "# TYPE epto_b_total counter\n"
      "epto_b_total 2\n";
  EXPECT_EQ(text, expected);
}

TEST(JsonLineTest, GoldenRecord) {
  Registry registry;
  registry.counter("epto_x_total", {{"node", "3"}}).inc(7);
  registry.gauge("epto_lag").set(-4);

  const std::string line = jsonLine(registry.snapshot(), 1234);
  const std::string expected =
      "{\"ts\":1234,\"samples\":["
      "{\"name\":\"epto_x_total\",\"labels\":{\"node\":\"3\"},\"kind\":\"counter\","
      "\"value\":7},"
      "{\"name\":\"epto_lag\",\"kind\":\"gauge\",\"value\":-4}"
      "]}";
  EXPECT_EQ(line, expected);
}

TEST(JsonLineTest, HistogramSample) {
  Registry registry;
  Histogram& h = registry.histogram("epto_h", {}, {2.0});
  h.observe(1.0);
  h.observe(5.0);
  const std::string json = sampleJson(registry.snapshot()[0]);
  EXPECT_EQ(json,
            "{\"name\":\"epto_h\",\"kind\":\"histogram\","
            "\"bounds\":[2],\"buckets\":[1,1],\"count\":2,\"sum\":6}");
}

TEST(JsonlWriterTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "epto_jsonl_writer_test.jsonl";
  std::remove(path.c_str());
  {
    Registry registry;
    registry.counter("epto_x_total").inc(1);
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.write(registry.snapshot(), 10);
    registry.counter("epto_x_total").inc(1);
    writer.write(registry.snapshot(), 20);
    writer.writeRaw("{\"type\":\"custom\"}");
    writer.flush();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ts\":10"), std::string::npos);
  EXPECT_NE(lines[0].find("\"value\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ts\":20"), std::string::npos);
  EXPECT_NE(lines[1].find("\"value\":2"), std::string::npos);
  EXPECT_EQ(lines[2], "{\"type\":\"custom\"}");
  std::remove(path.c_str());
}

TEST(JsonlWriterTest, UnwritablePathReportsNotOk) {
  JsonlWriter writer("/nonexistent-dir-zzz/out.jsonl");
  EXPECT_FALSE(writer.ok());
}

}  // namespace
}  // namespace epto::obs
