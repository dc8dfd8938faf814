// Unit tests of the scoped-span tracer: enable gating, balanced nested
// spans, per-thread tracks from ParallelFor workers, and the Chrome
// trace-event JSON export.

#include "util/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "tests/json_syntax.h"
#include "tests/thread_count_guard.h"
#include "util/parallel.h"

namespace adr {
namespace {

// Every test drains the global tracer so earlier tests' spans (and any
// library instrumentation) do not leak into assertions.
class TracerGuard {
 public:
  TracerGuard() {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
  }
  ~TracerGuard() {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
  }
};

using testutil::ThreadCountGuard;

std::vector<TraceEvent> EventsNamed(const std::vector<TraceEvent>& events,
                                    const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (e.name != nullptr && name == e.name) out.push_back(e);
  }
  return out;
}

TEST(TracerTest, DisabledSpansRecordNothing) {
  TracerGuard guard;
  { ADR_TRACE_SPAN("invisible"); }
  EXPECT_TRUE(Tracer::Global().SnapshotEvents().empty());
}

TEST(TracerTest, EnableGateIsSampledAtConstruction) {
  TracerGuard guard;
  Tracer::Global().SetEnabled(true);
  {
    ADR_TRACE_SPAN("caught_mid_flight");
    // Disabling mid-span must not lose the already-started span.
    Tracer::Global().SetEnabled(false);
  }
  const auto events = Tracer::Global().SnapshotEvents();
  ASSERT_EQ(EventsNamed(events, "caught_mid_flight").size(), 1u);
}

TEST(TracerTest, NestedSpansAreBalancedAndOrdered) {
  TracerGuard guard;
  Tracer::Global().SetEnabled(true);
  {
    ADR_TRACE_SPAN("outer");
    {
      ADR_TRACE_SPAN("inner");
    }
  }
  Tracer::Global().SetEnabled(false);

  const auto events = Tracer::Global().SnapshotEvents();
  const auto outer = EventsNamed(events, "outer");
  const auto inner = EventsNamed(events, "inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  // The inner span nests inside the outer one on the same track.
  EXPECT_EQ(outer[0].tid, inner[0].tid);
  EXPECT_LE(outer[0].start_us, inner[0].start_us);
  EXPECT_GE(outer[0].start_us + outer[0].duration_us,
            inner[0].start_us + inner[0].duration_us);
  EXPECT_GE(outer[0].duration_us, 0);
  EXPECT_GE(inner[0].duration_us, 0);
}

TEST(TracerTest, PoolWorkersGetTheirOwnTracks) {
  TracerGuard tracer_guard;
  ThreadCountGuard thread_guard;
  ThreadPool::SetGlobalThreads(4);
  Tracer::Global().SetEnabled(true);
  // Force many chunks so several workers participate; each chunk is
  // wrapped in a "pool_chunk" span by the pool itself.
  ParallelFor(64, /*grain=*/1, [](int64_t, int64_t) {});
  Tracer::Global().SetEnabled(false);

  const auto chunks =
      EventsNamed(Tracer::Global().SnapshotEvents(), "pool_chunk");
  ASSERT_GE(chunks.size(), 1u);
  std::set<int> tids;
  for (const TraceEvent& e : chunks) tids.insert(e.tid);
  // All worker tids are distinct registration indices (>= 0); with 4
  // workers and 64 chunks at least one track must exist.
  EXPECT_GE(tids.size(), 1u);
  for (const int tid : tids) EXPECT_GE(tid, 0);
}

TEST(TracerTest, ToJsonIsValidChromeTraceFormat) {
  TracerGuard guard;
  Tracer::Global().SetCurrentThreadName("test-main");
  Tracer::Global().SetEnabled(true);
  {
    ADR_TRACE_SPAN("json_span");
  }
  Tracer::Global().SetEnabled(false);

  const std::string json = Tracer::Global().ToJson();
  EXPECT_TRUE(adr::testing::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One complete event for the span, one metadata event for the name.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("json_span"), std::string::npos);
  EXPECT_NE(json.find("test-main"), std::string::npos);
}

TEST(TracerTest, WriteJsonFileProducesLoadableDocument) {
  TracerGuard guard;
  Tracer::Global().SetEnabled(true);
  {
    ADR_TRACE_SPAN("file_span");
  }
  Tracer::Global().SetEnabled(false);

  const std::string path = ::testing::TempDir() + "/trace_dump.json";
  ASSERT_TRUE(Tracer::Global().WriteJsonFile(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  EXPECT_TRUE(adr::testing::IsValidJson(contents)) << contents;
  EXPECT_NE(contents.find("file_span"), std::string::npos);
}

TEST(TracerTest, ClearDropsEventsButKeepsRecording) {
  TracerGuard guard;
  Tracer::Global().SetEnabled(true);
  {
    ADR_TRACE_SPAN("before_clear");
  }
  Tracer::Global().Clear();
  EXPECT_TRUE(Tracer::Global().SnapshotEvents().empty());
  // Cached thread-local buffers must still work after Clear().
  {
    ADR_TRACE_SPAN("after_clear");
  }
  Tracer::Global().SetEnabled(false);
  const auto events = Tracer::Global().SnapshotEvents();
  EXPECT_EQ(EventsNamed(events, "before_clear").size(), 0u);
  EXPECT_EQ(EventsNamed(events, "after_clear").size(), 1u);
}

TEST(TracerTest, NowMicrosIsMonotonic) {
  Tracer& tracer = Tracer::Global();
  const int64_t a = tracer.NowMicros();
  const int64_t b = tracer.NowMicros();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace adr
