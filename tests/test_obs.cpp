// Tests for the observability primitives: trace buffer span bookkeeping,
// JSON escaping and Chrome trace_event emission, the null-sink Trace handle,
// and the counter/gauge registry with its per-epoch marks.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "obs/counters.hpp"
#include "obs/names.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"

namespace coolpim::obs {
namespace {

TEST(TraceBufferTest, RecordsEventsInOrder) {
  TraceBuffer buf;
  buf.begin(Time::us(1), "sim", "pass");
  buf.instant(Time::us(2), "sys", "warning");
  buf.counter(Time::us(3), "sys", "rate", 1.5);
  buf.complete(Time::us(4), Time::us(2), "hmc", "serve");
  buf.end(Time::us(7));

  ASSERT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.events()[0].phase, 'B');
  EXPECT_EQ(buf.events()[0].cat, "sim");
  EXPECT_EQ(buf.events()[0].name, "pass");
  EXPECT_EQ(buf.events()[1].phase, 'i');
  EXPECT_EQ(buf.events()[2].phase, 'C');
  EXPECT_EQ(buf.events()[3].phase, 'X');
  EXPECT_EQ(buf.events()[3].dur, Time::us(2));
  EXPECT_EQ(buf.events()[4].phase, 'E');
}

TEST(TraceBufferTest, TracksOpenSpans) {
  TraceBuffer buf;
  EXPECT_EQ(buf.open_spans(), 0u);
  buf.begin(Time::us(0), "sim", "outer");
  buf.begin(Time::us(1), "sim", "inner");
  EXPECT_EQ(buf.open_spans(), 2u);
  buf.end(Time::us(2));
  EXPECT_EQ(buf.open_spans(), 1u);
  buf.end(Time::us(3));
  EXPECT_EQ(buf.open_spans(), 0u);
}

TEST(TraceHandleTest, DefaultConstructedIsNullSink) {
  Trace trace;
  EXPECT_FALSE(trace.enabled());
  // All record calls must be harmless no-ops.
  trace.begin(Time::us(0), "sim", "pass");
  trace.instant(Time::us(1), "sys", "warn");
  trace.counter(Time::us(1), "sys", "rate", 1.0);
  trace.complete(Time::us(1), Time::us(1), "hmc", "serve");
  trace.end(Time::us(2));
}

TEST(TraceHandleTest, EnabledHandleWritesThrough) {
  TraceBuffer buf;
  Trace trace{&buf};
  EXPECT_TRUE(trace.enabled());
  trace.instant(Time::us(1), "sys", "warn", {{"level", 2}});
  ASSERT_EQ(buf.size(), 1u);
  ASSERT_EQ(buf.events()[0].args.size(), 1u);
  EXPECT_EQ(buf.events()[0].args[0].key, "level");
  EXPECT_EQ(buf.events()[0].args[0].value, "2");
  EXPECT_TRUE(buf.events()[0].args[0].number);
}

TEST(TraceArgTest, RendersEachValueKind) {
  EXPECT_EQ(TraceArg("k", "text").value, "text");
  EXPECT_FALSE(TraceArg("k", "text").number);
  EXPECT_EQ(TraceArg("k", true).value, "true");
  EXPECT_TRUE(TraceArg("k", true).number);
  EXPECT_EQ(TraceArg("k", std::uint64_t{42}).value, "42");
  EXPECT_EQ(TraceArg("k", -7).value, "-7");
  EXPECT_TRUE(TraceArg("k", 1.25).number);
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string{"a\x01" "b"}), "a\\u0001b");
}

TEST(ChromeTraceTest, EmitsMetadataAndEvents) {
  TraceBuffer buf;
  buf.complete(Time::us(1), Time::us(2), "hmc", "serve", {{"reads", std::uint64_t{3}}});
  std::ostringstream os;
  write_chrome_trace(os, {TraceTrack{7, "dc / Naive", &buf}});
  const std::string out = os.str();

  EXPECT_EQ(out.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(out.find("\"pid\":7"), std::string::npos);
  EXPECT_NE(out.find("dc / Naive"), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"hmc\""), std::string::npos);
  // Numeric args are bare, not quoted.
  EXPECT_NE(out.find("\"reads\":3"), std::string::npos);
  EXPECT_EQ(out.find("\"reads\":\"3\""), std::string::npos);
}

TEST(ChromeTraceTest, OutputIsByteStableAcrossCalls) {
  TraceBuffer buf;
  buf.begin(Time::ms(0.5), "sim", "pass", {{"epoch_us", 50.0}});
  buf.instant(Time::ms(0.75), "thermal", "warning_crossing", {{"direction", "rising"}});
  buf.end(Time::ms(1.0));
  std::ostringstream a;
  std::ostringstream b;
  write_chrome_trace(a, {TraceTrack{0, "t", &buf}});
  write_chrome_trace(b, {TraceTrack{0, "t", &buf}});
  EXPECT_EQ(a.str(), b.str());
}

TEST(CounterRegistryTest, CountersAndGaugesAreSeparate) {
  CounterRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("gpu/pim_ops").add(10);
  reg.counter("gpu/pim_ops").add(5);
  reg.gauge("gpu/pim_ops").set(0.5);  // same name, different kind: no aliasing
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.counter_value("gpu/pim_ops"), 15u);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at("counter/gpu/pim_ops"), 15.0);
  EXPECT_EQ(snap.at("gauge/gpu/pim_ops"), 0.5);
}

TEST(CounterRegistryTest, ReferencesStayValidAcrossInserts) {
  CounterRegistry reg;
  CounterCell& cell = reg.counter("a/first");
  for (int i = 0; i < 100; ++i) reg.counter("b/filler_" + std::to_string(i));
  cell.add(3);
  EXPECT_EQ(reg.counter_value("a/first"), 3u);
}

TEST(CounterRegistryTest, MarksSnapshotAtSimulatedTimes) {
  CounterRegistry reg;
  reg.counter("sys/epochs").add();
  reg.mark(Time::ms(1));
  reg.counter("sys/epochs").add();
  reg.gauge("thermal/peak_dram_c").set(84.0);
  reg.mark(Time::ms(2));

  ASSERT_EQ(reg.marks().size(), 2u);
  EXPECT_EQ(reg.marks()[0].when, Time::ms(1));
  EXPECT_EQ(reg.marks()[0].values.at("counter/sys/epochs"), 1.0);
  // The gauge did not exist at the first mark.
  EXPECT_EQ(reg.marks()[0].values.count("gauge/thermal/peak_dram_c"), 0u);
  EXPECT_EQ(reg.marks()[1].values.at("counter/sys/epochs"), 2.0);
  EXPECT_EQ(reg.marks()[1].values.at("gauge/thermal/peak_dram_c"), 84.0);
}

TEST(SweepObserverTest, TasksKeepSubmissionOrderInOutput) {
  SweepObserver obs;
  auto* a = obs.add_task("dc", "Naive");
  auto* b = obs.add_task("pagerank", "CoolPIM (HW)");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->index, 0u);
  EXPECT_EQ(b->index, 1u);
  EXPECT_EQ(obs.task_count(), 2u);

  a->obs.trace_buffer.instant(Time::us(1), "sim", "from_a");
  b->obs.trace_buffer.instant(Time::us(1), "sim", "from_b");
  std::ostringstream os;
  obs.write_trace(os);
  const std::string out = os.str();
  // Track 0 (and its event) precede track 1 regardless of write order.
  EXPECT_LT(out.find("from_a"), out.find("from_b"));
  EXPECT_LT(out.find("\"pid\":0"), out.find("\"pid\":1"));
}

TEST(SweepObserverTest, CountersCsvHasDocumentedHeader) {
  SweepObserver obs;
  auto* rec = obs.add_task("dc", "Naive");
  rec->obs.counters.counter("sys/epochs").add(4);
  rec->obs.counters.mark(Time::ms(1));
  rec->exec_time = Time::ms(2);
  std::ostringstream os;
  obs.write_counters_csv(os);
  const std::string out = os.str();
  EXPECT_EQ(out.find("task,workload,scenario,t_ms,kind,counter,value\n"), 0u);
  EXPECT_NE(out.find("0,dc,Naive,1,counter,sys/epochs,4"), std::string::npos);
  // Final end-of-run snapshot stamped with exec_time.
  EXPECT_NE(out.find("0,dc,Naive,2,counter,sys/epochs,4"), std::string::npos);
}

// ---- Docs sync: obs::names vs docs/OBSERVABILITY.md -------------------------
// The exported name catalogue (src/obs/names.hpp) is the single source of
// truth for the counter/gauge/category namespace; this pins it to the schema
// reference in both directions: every exported name is documented, and every
// documented counter-style token still exists.

namespace {

std::string read_observability_doc() {
  std::ifstream doc{std::string{COOLPIM_DOCS_DIR} + "/OBSERVABILITY.md"};
  EXPECT_TRUE(doc.is_open()) << "docs/OBSERVABILITY.md missing";
  std::ostringstream ss;
  ss << doc.rdbuf();
  return ss.str();
}

}  // namespace

TEST(DocsSyncTest, EveryExportedCounterAndGaugeIsDocumented) {
  const std::string doc = read_observability_doc();
  for (const auto name : names::kAllCounters) {
    EXPECT_NE(doc.find(std::string{"`"}.append(name).append("`")), std::string::npos)
        << name << " not documented in docs/OBSERVABILITY.md";
  }
  for (const auto name : names::kAllGauges) {
    EXPECT_NE(doc.find(std::string{"`"}.append(name).append("`")), std::string::npos)
        << name << " not documented in docs/OBSERVABILITY.md";
  }
}

TEST(DocsSyncTest, EveryCategoryHasASchemaSection) {
  const std::string doc = read_observability_doc();
  for (const auto cat : names::kAllCategories) {
    EXPECT_NE(doc.find("### `" + std::string{cat} + "`"), std::string::npos)
        << "category " << cat << " has no trace-schema section in docs/OBSERVABILITY.md";
  }
}

TEST(DocsSyncTest, EveryDocumentedCounterStillExists) {
  // Scan backticked `prefix/name` tokens whose prefix matches an exported
  // counter/gauge namespace; each must still be in the catalogue (a doc row
  // for a renamed or deleted counter fails here).
  const std::string doc = read_observability_doc();
  std::set<std::string> known, prefixes;
  for (const auto name : names::kAllCounters) {
    known.emplace(name);
    prefixes.emplace(std::string{name.substr(0, name.find('/'))});
  }
  for (const auto name : names::kAllGauges) {
    known.emplace(name);
    prefixes.emplace(std::string{name.substr(0, name.find('/'))});
  }
  const std::regex token{R"(`([a-z_]+/[a-z_0-9]+)`)"};
  for (auto it = std::sregex_iterator{doc.begin(), doc.end(), token};
       it != std::sregex_iterator{}; ++it) {
    const std::string name = (*it)[1];
    const std::string prefix = name.substr(0, name.find('/'));
    if (prefixes.count(prefix) == 0) continue;  // paths, prose placeholders
    EXPECT_TRUE(known.count(name) == 1)
        << "docs/OBSERVABILITY.md documents `" << name
        << "` which is not in obs::names (renamed or removed?)";
  }
}

}  // namespace
}  // namespace coolpim::obs
