#include "src/telemetry/export.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/telemetry/metrics.h"
#include "src/telemetry/tracer.h"

namespace faas {
namespace {

// Minimal recursive-descent JSON validator — enough to prove the Chrome
// trace output is well-formed without pulling in a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) {
        return false;
      }
      SkipSpace();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipSpace();
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string text_;  // A copy: callers may pass a temporary.
  size_t pos_ = 0;
};

void FillTracer(Tracer& tracer) {
  tracer.RegisterProcess(0, "cluster \"quoted\" name");
  tracer.RegisterThread(0, 0, "controller");
  const int32_t label = tracer.InternLabel("policy=\"hybrid\"");
  SpanRecord span;
  span.start_ms = 120;
  span.dur_ms = 35;
  span.trace_id = 7;
  span.arg0 = 1;
  span.label_id = label;
  span.name = static_cast<int16_t>(SpanName::kActivation);
  SpanRecord instant;
  instant.start_ms = 155;
  instant.trace_id = 7;
  instant.name = static_cast<int16_t>(SpanName::kWarmHit);
  SpanBuffer buffer = {span, instant};
  tracer.Fold(buffer);
}

TEST(TelemetryExport, ChromeTraceIsValidJson) {
  Tracer tracer;
  FillTracer(tracer);
  std::ostringstream out;
  WriteChromeTrace(tracer.Collect(), out);
  const std::string text = out.str();
  JsonChecker checker(text);
  EXPECT_TRUE(checker.Valid()) << text;
}

TEST(TelemetryExport, ChromeTraceCarriesSpansAndMetadata) {
  Tracer tracer;
  FillTracer(tracer);
  std::ostringstream out;
  WriteChromeTrace(tracer.Collect(), out);
  const std::string text = out.str();
  // Metadata events name the process lane.
  EXPECT_NE(text.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"thread_name\""), std::string::npos);
  // The duration span: sim ms exported as trace us.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":120000"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":35000"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"activation\""), std::string::npos);
  // The instant event carries the scope marker instead of a duration.
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"warm_hit\""), std::string::npos);
  // The interned label becomes the category.
  EXPECT_NE(text.find("\"cat\":\"policy=\\\"hybrid\\\"\""),
            std::string::npos);
}

TEST(TelemetryExport, ChromeTraceOfEmptyTracerIsValid) {
  Tracer tracer;
  std::ostringstream out;
  WriteChromeTrace(tracer.Collect(), out);
  JsonChecker checker(out.str());
  EXPECT_TRUE(checker.Valid()) << out.str();
}

TEST(TelemetryExport, PrometheusTextCounterGaugeFormat) {
  MetricsRegistry registry;
  const CounterId hits =
      registry.AddCounter("hits_total", "Total hits", "policy=\"p\"");
  registry.Inc(hits, 41);
  const GaugeId depth = registry.AddGauge("depth", "Queue depth");
  registry.Set(depth, 2.5, TimePoint(1000));
  std::ostringstream out;
  WritePrometheusText(registry.Scrape(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP hits_total Total hits\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hits_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("hits_total{policy=\"p\"} 41\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth 2.5\n"), std::string::npos);
}

TEST(TelemetryExport, PrometheusHelpAndTypeOncePerBaseName) {
  MetricsRegistry registry;
  registry.Inc(registry.AddCounter("hits_total", "Total hits",
                                   "policy=\"a\""), 1);
  registry.Inc(registry.AddCounter("hits_total", "Total hits",
                                   "policy=\"b\""), 2);
  std::ostringstream out;
  WritePrometheusText(registry.Scrape(), out);
  const std::string text = out.str();
  size_t count = 0;
  for (size_t pos = text.find("# HELP hits_total");
       pos != std::string::npos;
       pos = text.find("# HELP hits_total", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_NE(text.find("hits_total{policy=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("hits_total{policy=\"b\"} 2\n"), std::string::npos);
}

TEST(TelemetryExport, PrometheusHistogramCumulativeBuckets) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.AddHistogram("lat_ms", "Latency", {10.0, 20.0});
  registry.Observe(id, 5.0);    // Underflow.
  registry.Observe(id, 12.0);   // [10, 20).
  registry.Observe(id, 100.0);  // Overflow.
  std::ostringstream out;
  WritePrometheusText(registry.Scrape(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE lat_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"20\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_sum 117\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 3\n"), std::string::npos);
}

TEST(TelemetryExport, PrometheusSeriesExportedAsTotal) {
  MetricsRegistry registry;
  const SeriesId id = registry.AddSeries("per_min", "Per minute",
                                         Duration::Minutes(1), 3);
  registry.SeriesAdd(id, TimePoint(0), 2);
  registry.SeriesAdd(id, TimePoint(60'000), 3);
  std::ostringstream out;
  WritePrometheusText(registry.Scrape(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE per_min counter\n"), std::string::npos);
  EXPECT_NE(text.find("per_min 5\n"), std::string::npos);
}

TEST(TelemetryExport, SeriesCsvShapeAndQuoting) {
  MetricsRegistry registry;
  const SeriesId a = registry.AddSeries("per_min", "Per minute",
                                        Duration::Minutes(1), 3,
                                        "policy=\"a,b\"");
  const SeriesId b = registry.AddSeries("other", "Other",
                                        Duration::Minutes(1), 2);
  registry.SeriesAdd(a, TimePoint(0), 7);
  registry.SeriesAdd(b, TimePoint(60'000), 9);
  std::ostringstream out;
  WriteSeriesCsv(registry.Scrape(), out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  // Embedded commas/quotes force CSV quoting with doubled inner quotes.
  EXPECT_EQ(line,
            "bin,start_s,\"per_min{policy=\"\"a,b\"\"}\",other");
  std::vector<std::string> rows;
  while (std::getline(lines, line)) {
    rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), 3u);  // max_bins across the two series.
  EXPECT_EQ(rows[0], "0,0,7,0");
  EXPECT_EQ(rows[1], "1,60,0,9");
  EXPECT_EQ(rows[2], "2,120,0,");  // Shorter series pads with empty cells.
}

TEST(TelemetryExport, SeriesCsvNoSeriesStillHasHeader) {
  MetricsRegistry registry;
  registry.AddCounter("hits_total", "hits");
  std::ostringstream out;
  WriteSeriesCsv(registry.Scrape(), out);
  EXPECT_EQ(out.str(), "bin,start_s\n");
}

TEST(TelemetryExport, FormatMetricValueRoundTrips) {
  for (double value : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 12345.6789,
                       1e-300, 1.7976931348623157e308, 60.0}) {
    const std::string text = FormatMetricValue(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  EXPECT_EQ(FormatMetricValue(2.5), "2.5");
  EXPECT_EQ(FormatMetricValue(60.0), "60");
  EXPECT_EQ(FormatMetricValue(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(FormatMetricValue(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(FormatMetricValue(std::nan("")), "NaN");
}

}  // namespace
}  // namespace faas
