#include "src/telemetry/tracer.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace faas {
namespace {

SpanRecord MakeSpan(int64_t start_ms, int64_t trace_id,
                    SpanName name = SpanName::kActivation,
                    int32_t label_id = -1) {
  SpanRecord span;
  span.start_ms = start_ms;
  span.dur_ms = 10;
  span.trace_id = trace_id;
  span.label_id = label_id;
  span.name = static_cast<int16_t>(name);
  return span;
}

// Folds a one-span buffer, as a writer with a single span would.
void Record(Tracer& tracer, const SpanRecord& span) {
  SpanBuffer buffer = {span};
  tracer.Fold(buffer);
}

TEST(TelemetryTracer, RecordsAndCollects) {
  Tracer tracer;
  Record(tracer, MakeSpan(100, 1));
  Record(tracer, MakeSpan(200, 2));
  EXPECT_EQ(tracer.num_spans(), 2u);
  const CollectedTrace trace = tracer.Collect();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].start_ms, 100);
  EXPECT_EQ(trace.spans[1].start_ms, 200);
}

TEST(TelemetryTracer, FoldedBuffersLoseNothing) {
  // Spans folded one at a time and from several writers' buffers all
  // surface in Collect.
  Tracer tracer;
  std::vector<SpanBuffer> buffers(3);
  for (int i = 0; i < 23; ++i) {
    if (i % 4 == 3) {
      Record(tracer, MakeSpan(i, i));
    } else {
      buffers[static_cast<size_t>(i % 4)].push_back(MakeSpan(i, i));
    }
  }
  for (SpanBuffer& buffer : buffers) {
    tracer.Fold(buffer);
    EXPECT_TRUE(buffer.empty());  // Emptied for reuse.
  }
  SpanBuffer empty;
  tracer.Fold(empty);  // An empty fold is a no-op.
  EXPECT_EQ(tracer.num_spans(), 23u);
  const CollectedTrace trace = tracer.Collect();
  ASSERT_EQ(trace.spans.size(), 23u);
  for (int i = 0; i < 23; ++i) {
    EXPECT_EQ(trace.spans[static_cast<size_t>(i)].trace_id, i);
  }
}

TEST(TelemetryTracer, CollectIsCanonicalAcrossRecordingThreads) {
  // The same logical span set recorded on one thread vs buffered by four
  // writer threads and folded in whatever order they finish must collect to
  // identical bytes — the determinism the --trace-out acceptance check
  // relies on.
  std::vector<SpanRecord> spans;
  for (int i = 0; i < 200; ++i) {
    spans.push_back(MakeSpan(/*start_ms=*/i % 17, /*trace_id=*/i));
  }

  Tracer single;
  for (const SpanRecord& span : spans) {
    Record(single, span);
  }

  Tracer folded;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&folded, &spans, t]() {
      SpanBuffer buffer;
      for (size_t i = static_cast<size_t>(t); i < spans.size(); i += 4) {
        buffer.push_back(spans[i]);
        if (buffer.size() == 8) {
          folded.Fold(buffer);
        }
      }
      folded.Fold(buffer);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const CollectedTrace a = single.Collect();
  const CollectedTrace b = folded.Collect();
  ASSERT_EQ(a.spans.size(), b.spans.size());
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(TelemetryTracer, CollectSortsByPidThenStart) {
  Tracer tracer;
  SpanRecord late = MakeSpan(500, 1);
  SpanRecord early = MakeSpan(100, 2);
  SpanRecord other_pid = MakeSpan(50, 3);
  other_pid.pid = 1;
  Record(tracer, late);
  Record(tracer, other_pid);
  Record(tracer, early);
  const CollectedTrace trace = tracer.Collect();
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[0].trace_id, 2);  // pid 0, start 100.
  EXPECT_EQ(trace.spans[1].trace_id, 1);  // pid 0, start 500.
  EXPECT_EQ(trace.spans[2].trace_id, 3);  // pid 1.
}

TEST(TelemetryTracer, LabelsRemapToLexicographicOrder) {
  // Interning order differs between runs (e.g. policy registration order);
  // Collect must normalise ids so the output does not depend on it.
  Tracer tracer;
  const int32_t zebra = tracer.InternLabel("policy=\"zebra\"");
  const int32_t alpha = tracer.InternLabel("policy=\"alpha\"");
  EXPECT_NE(zebra, alpha);
  EXPECT_EQ(tracer.InternLabel("policy=\"zebra\""), zebra);  // Idempotent.
  Record(tracer, MakeSpan(1, 1, SpanName::kActivation, zebra));
  Record(tracer, MakeSpan(2, 2, SpanName::kActivation, alpha));
  const CollectedTrace trace = tracer.Collect();
  ASSERT_EQ(trace.labels.size(), 2u);
  EXPECT_EQ(trace.labels[0], "policy=\"alpha\"");
  EXPECT_EQ(trace.labels[1], "policy=\"zebra\"");
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].label_id, 1);  // zebra, recorded at t=1.
  EXPECT_EQ(trace.spans[1].label_id, 0);  // alpha, recorded at t=2.
}

TEST(TelemetryTracer, ProcessAndThreadMetadataSorted) {
  Tracer tracer;
  tracer.RegisterProcess(1, "cluster hybrid");
  tracer.RegisterProcess(0, "cluster fixed-10min");
  tracer.RegisterThread(0, 2, "invoker 1");
  tracer.RegisterThread(0, 0, "controller");
  const CollectedTrace trace = tracer.Collect();
  ASSERT_EQ(trace.processes.size(), 2u);
  EXPECT_EQ(trace.processes[0].first, 0);
  EXPECT_EQ(trace.processes[0].second, "cluster fixed-10min");
  EXPECT_EQ(trace.processes[1].first, 1);
  ASSERT_EQ(trace.threads.size(), 2u);
  EXPECT_EQ(trace.threads[0].first, (std::pair<int16_t, int32_t>{0, 0}));
  EXPECT_EQ(trace.threads[0].second, "controller");
  EXPECT_EQ(trace.threads[1].first, (std::pair<int16_t, int32_t>{0, 2}));
}

TEST(TelemetryTracer, SpanNameStringsAreDistinctAndNonEmpty) {
  std::vector<std::string> seen;
  for (int i = 0; i < static_cast<int>(SpanName::kNumSpanNames); ++i) {
    const char* name = SpanNameString(static_cast<SpanName>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_NE(std::string(name), "");
    for (const std::string& other : seen) {
      EXPECT_NE(other, name);
    }
    seen.emplace_back(name);
  }
}

TEST(TelemetryTracer, TwoTracersStayIndependent) {
  Tracer a;
  Tracer b;
  Record(a, MakeSpan(1, 1));
  Record(b, MakeSpan(2, 2));
  SpanBuffer buffer = {MakeSpan(3, 3)};
  b.Fold(buffer);
  EXPECT_EQ(a.Collect().spans.size(), 1u);
  EXPECT_EQ(b.Collect().spans.size(), 2u);
}

}  // namespace
}  // namespace faas
