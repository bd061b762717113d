// Tests for the observability subsystem (obs/): metrics registry +
// exporters, trace spans, flight recorder, telemetry hub, profiler -- plus
// integration through the instrumented SpaceCDN router.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "des/simulator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/router.hpp"

namespace spacecdn::obs {
namespace {

std::size_t count_lines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

// ------------------------------------------------------------------ metrics

TEST(Metrics, CounterCountsPerLabelSet) {
  MetricsRegistry reg;
  reg.counter("requests").inc();
  reg.counter("requests").inc(2);
  reg.counter("requests", {{"tier", "ground"}}).inc(5);
  EXPECT_EQ(reg.counter_value("requests"), 3u);
  EXPECT_EQ(reg.counter_value("requests", {{"tier", "ground"}}), 5u);
  EXPECT_EQ(reg.counter_value("requests", {{"tier", "space"}}), 0u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
}

TEST(Metrics, LabelSetOrderInsensitive) {
  const LabelSet a{{"b", "1"}, {"a", "2"}};
  const LabelSet b{{"a", "2"}, {"b", "1"}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.prometheus(), "{a=\"2\",b=\"1\"}");
  MetricsRegistry reg;
  reg.counter("x", a).inc();
  reg.counter("x", b).inc();
  EXPECT_EQ(reg.counter_value("x", a), 2u);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  reg.gauge("depth").set(4.0);
  reg.gauge("depth").add(-1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 2.5);
}

TEST(Metrics, HistogramTracksMomentsAndBins) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("lat", {}, {0.0, 10.0, 10});
  for (const double x : {0.5, 1.5, 1.5, 9.5}) h.observe(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.0);
  EXPECT_EQ(h.bins().count(0), 1u);
  EXPECT_EQ(h.bins().count(1), 2u);
  EXPECT_EQ(h.bins().count(9), 1u);
  // Options only apply at family creation; later lookups reuse them.
  EXPECT_EQ(reg.histogram("lat", {}, {0.0, 1.0, 2}).bins().bins(), 10u);
}

TEST(Metrics, PrometheusExportFormat) {
  MetricsRegistry reg;
  reg.counter("spacecdn_fetch_total", {{"tier", "ground"}}).inc(7);
  reg.gauge("spacecdn_sats_down").set(3.0);
  HistogramMetric& h = reg.histogram("rtt_ms", {}, {0.0, 4.0, 2});
  h.observe(1.0);
  h.observe(1.0);
  h.observe(3.0);

  std::ostringstream os;
  reg.export_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE spacecdn_fetch_total counter"), std::string::npos);
  EXPECT_NE(text.find("spacecdn_fetch_total{tier=\"ground\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spacecdn_sats_down gauge"), std::string::npos);
  EXPECT_NE(text.find("spacecdn_sats_down 3"), std::string::npos);
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"4\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_sum 5"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_count 3"), std::string::npos);
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("c", {{"k", "a\"b\\c\nd"}}).inc();
  std::ostringstream os;
  reg.export_prometheus(os);
  EXPECT_NE(os.str().find("c{k=\"a\\\"b\\\\c\\nd\"} 1"), std::string::npos);
}

TEST(Metrics, PrometheusHelpConformance) {
  // Exposition-format conformance: # HELP precedes # TYPE for every family
  // that has help text, histograms always carry HELP (fallback text when
  // none was registered), and HELP escapes backslash and newline only
  // (quotes are legal in help text, unlike in label values).
  MetricsRegistry reg;
  reg.counter("spacecdn_req_total").inc(3);
  reg.set_help("spacecdn_req_total", "Requests \"offered\" \\ per\nrun.");
  reg.counter("spacecdn_unhelped_total").inc();
  reg.histogram("spacecdn_rtt_ms", {}, {0.0, 4.0, 2}).observe(1.0);

  std::ostringstream os;
  reg.export_prometheus(os);
  const std::string text = os.str();

  const auto help = text.find(
      "# HELP spacecdn_req_total Requests \"offered\" \\\\ per\\nrun.\n");
  const auto type = text.find("# TYPE spacecdn_req_total counter");
  ASSERT_NE(help, std::string::npos);
  ASSERT_NE(type, std::string::npos);
  EXPECT_LT(help, type);

  // No registered help: counters stay HELP-less, histograms get a fallback.
  EXPECT_EQ(text.find("# HELP spacecdn_unhelped_total"), std::string::npos);
  const auto hist_help = text.find("# HELP spacecdn_rtt_ms ");
  const auto hist_type = text.find("# TYPE spacecdn_rtt_ms histogram");
  ASSERT_NE(hist_help, std::string::npos);
  ASSERT_NE(hist_type, std::string::npos);
  EXPECT_LT(hist_help, hist_type);
}

TEST(Metrics, HelpMergeKeepsFirstRegistration) {
  MetricsRegistry a;
  a.counter("m").inc();
  a.set_help("m", "first");
  MetricsRegistry b;
  b.counter("m").inc();
  b.set_help("m", "second");
  b.set_help("other", "only in b");
  a.merge(b);
  EXPECT_EQ(a.help("m"), "first");
  EXPECT_EQ(a.help("other"), "only in b");
  EXPECT_EQ(a.help("absent"), "");
}

TEST(Metrics, JsonExportParsesAsExpectedShape) {
  MetricsRegistry reg;
  reg.counter("hits", {{"tier", "space"}}).inc(2);
  reg.gauge("load").set(0.5);
  reg.histogram("ms", {}, {0.0, 10.0, 10}).observe(4.0);

  std::ostringstream os;
  reg.export_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hits\",\"labels\":{\"tier\":\"space\"},\"value\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"gauges\":["), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(json.find("\"count\":1,\"sum\":4"), std::string::npos);
}

TEST(Metrics, MergeFoldsEveryKind) {
  MetricsRegistry a, b;
  a.counter("c").inc(1);
  b.counter("c").inc(2);
  b.counter("only_b", {{"l", "x"}}).inc(4);
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h", {}, {0.0, 10.0, 10}).observe(2.5);
  b.histogram("h", {}, {0.0, 10.0, 10}).observe(7.5);

  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 3u);
  EXPECT_EQ(a.counter_value("only_b", {{"l", "x"}}), 4u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0);
  EXPECT_EQ(a.histogram("h", {}, {0.0, 10.0, 10}).count(), 2u);
}

// Everything from here to the end of the file exercises *installed* sinks,
// which SPACECDN_NO_TELEMETRY compiles away by design (the accessors become
// constexpr nullptr).  The pure-data types above stay testable either way.
#ifndef SPACECDN_NO_TELEMETRY

TEST(Metrics, ClearBumpsEpochAndHandlesRebind) {
  MetricsRegistry reg;
  const TelemetryScope scope({.metrics = &reg});
  CounterHandle handle("rebind_test");
  handle.inc();
  EXPECT_EQ(reg.counter_value("rebind_test"), 1u);
  const std::uint64_t before = reg.epoch();
  reg.clear();
  EXPECT_NE(reg.epoch(), before);
  handle.inc();  // must not touch the counter freed by clear()
  EXPECT_EQ(reg.counter_value("rebind_test"), 1u);
  EXPECT_EQ(reg.family_count(), 1u);
}

TEST(Metrics, HandlesFollowInstalledRegistry) {
  MetricsRegistry a, b;
  CounterHandle counter("follow");
  HistogramHandle histogram("follow_ms", {}, {0.0, 10.0, 10});
  {
    const TelemetryScope scope({.metrics = &a});
    counter.inc();
    histogram.observe(1.0);
  }
  counter.inc();  // nothing installed: dropped
  {
    const TelemetryScope scope({.metrics = &b});
    counter.inc(2);
    histogram.observe(2.0);
  }
  EXPECT_EQ(a.counter_value("follow"), 1u);
  EXPECT_EQ(b.counter_value("follow"), 2u);
  EXPECT_EQ(a.histogram("follow_ms", {}, {0.0, 10.0, 10}).count(), 1u);
  EXPECT_EQ(b.histogram("follow_ms", {}, {0.0, 10.0, 10}).count(), 1u);
}

#endif  // SPACECDN_NO_TELEMETRY

// ------------------------------------------------------------------- traces

Trace sample_trace() {
  TraceBuilder builder("fetch", Milliseconds{100.0});
  builder.attr(builder.root(), "item", "42");
  const std::uint32_t attempt = builder.open("attempt");
  builder.set_duration(attempt, Milliseconds{30.0});
  const std::uint32_t tier = builder.open("tier:ground", attempt);
  builder.set_start(tier, Milliseconds{5.0});
  builder.set_duration(tier, Milliseconds{25.0});
  builder.metric(tier, "hops", 3.0);
  const std::uint32_t backoff = builder.open("backoff");
  builder.set_start(backoff, Milliseconds{30.0});
  builder.set_duration(backoff, Milliseconds{10.0});
  builder.set_duration(builder.root(), Milliseconds{40.0});
  return builder.finish(false);
}

TEST(Trace, BuilderNestsSpans) {
  const Trace trace = sample_trace();
  ASSERT_EQ(trace.spans.size(), 4u);
  EXPECT_EQ(trace.spans[0].name, "fetch");
  EXPECT_EQ(trace.spans[1].parent, 0u);
  EXPECT_EQ(trace.spans[2].parent, 1u);
  EXPECT_EQ(trace.depth(0), 0u);
  EXPECT_EQ(trace.depth(1), 1u);
  EXPECT_EQ(trace.depth(2), 2u);
  EXPECT_DOUBLE_EQ(trace.total().value(), 40.0);
  // Direct children of the root (attempt + backoff) account for the total.
  EXPECT_DOUBLE_EQ(trace.children_total().value(), 40.0);
  EXPECT_FALSE(trace.failed);
}

TEST(Trace, JsonlLineCarriesSpansAndAttrs) {
  std::ostringstream os;
  write_jsonl(os, sample_trace());
  const std::string line = os.str();
  EXPECT_EQ(line.find("{\"trace_id\":"), 0u);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"fetch\""), std::string::npos);
  EXPECT_NE(line.find("\"at_ms\":100"), std::string::npos);
  EXPECT_NE(line.find("\"total_ms\":40"), std::string::npos);
  EXPECT_NE(line.find("\"spans\":["), std::string::npos);
  EXPECT_NE(line.find("\"item\":\"42\""), std::string::npos);
  EXPECT_NE(line.find("\"hops\":3"), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
            std::count(line.begin(), line.end(), '}'));
}

TEST(Trace, TracerStreamsJsonlAndRetains) {
  std::ostringstream os;
  Tracer tracer;
  tracer.set_jsonl_sink(&os);
  tracer.set_retain(2);
  for (int i = 0; i < 3; ++i) tracer.record(sample_trace());
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(count_lines(os.str()), 3u);
  EXPECT_EQ(tracer.retained().size(), 2u);
  // Ids are assigned in record order; last() is the most recent.
  EXPECT_EQ(tracer.last().id, 3u);
}

TEST(Trace, WaterfallRendersEverySpan) {
  std::ostringstream os;
  render_waterfall(os, sample_trace(), 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("fetch"), std::string::npos);
  EXPECT_NE(out.find("tier:ground"), std::string::npos);
  EXPECT_NE(out.find("backoff"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_GE(count_lines(out), 4u);
}

// ---------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingKeepsMostRecent) {
  FlightRecorder recorder({.capacity = 3});
  for (int i = 1; i <= 5; ++i) {
    Trace t = sample_trace();
    t.id = static_cast<std::uint64_t>(i);
    recorder.push(std::move(t));
  }
  EXPECT_EQ(recorder.pushed(), 5u);
  EXPECT_EQ(recorder.size(), 3u);
  const auto kept = recorder.snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].id, 3u);  // oldest first
  EXPECT_EQ(kept[2].id, 5u);
}

TEST(FlightRecorder, TripDumpsRetainedTraces) {
  FlightRecorder recorder({.capacity = 4});
  std::ostringstream dump;
  recorder.set_dump_sink(&dump);
  recorder.push(sample_trace());
  recorder.push(sample_trace());
  recorder.trip("repair-audit-unrepairable", Milliseconds{1234.0});
  EXPECT_EQ(recorder.trips(), 1u);
  EXPECT_EQ(recorder.last_trip_reason(), "repair-audit-unrepairable");
  const std::string out = dump.str();
  EXPECT_EQ(out.find("# flight-recorder trip: repair-audit-unrepairable"), 0u);
  // Header line plus one JSONL line per retained trace.
  EXPECT_EQ(count_lines(out), 3u);
}

TEST(FlightRecorder, TracerFeedsRecorder) {
  FlightRecorder recorder({.capacity = 2});
  Tracer tracer;
  tracer.set_recorder(&recorder);
  tracer.record(sample_trace());
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.snapshot()[0].id, 1u);
}

TEST(FlightRecorder, EntriesStampSeqAndSimTime) {
  FlightRecorder recorder({.capacity = 4});
  for (int i = 0; i < 3; ++i) {
    Trace t = sample_trace();
    t.at = Milliseconds{100.0 * (i + 1)};
    recorder.push(std::move(t));
  }
  const auto entries = recorder.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].seq, 0u);
  EXPECT_EQ(entries[2].seq, 2u);
  EXPECT_DOUBLE_EQ(entries[0].at.value(), 100.0);
  EXPECT_DOUBLE_EQ(entries[2].at.value(), 300.0);
}

TEST(FlightRecorder, WrapAroundKeepsOldestFirstAndDumpOrdering) {
  FlightRecorder recorder({.capacity = 4});
  for (int i = 0; i < 10; ++i) {
    Trace t = sample_trace();
    t.id = static_cast<std::uint64_t>(i);
    t.at = Milliseconds{10.0 * i};
    recorder.push(std::move(t));
  }
  // Ring wrapped twice; the four retained entries are pushes 6..9, oldest
  // first even though the ring's head is mid-array.
  const auto entries = recorder.entries();
  ASSERT_EQ(entries.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(entries[i].seq, 6u + i);
    EXPECT_EQ(entries[i].trace.id, 6u + i);
    EXPECT_DOUBLE_EQ(entries[i].at.value(), 10.0 * (6.0 + static_cast<double>(i)));
  }

  // A trip after the wrap dumps the same order and names the seq range.
  std::ostringstream dump;
  recorder.set_dump_sink(&dump);
  recorder.trip("wrap-audit", Milliseconds{999.0});
  const std::string out = dump.str();
  EXPECT_NE(out.find("seq 6..9"), std::string::npos);
  EXPECT_EQ(count_lines(out), 5u);  // header + 4 retained traces
  // JSONL body lines appear oldest first: trace id 6 before id 9.
  EXPECT_LT(out.find("{\"trace_id\":6,"), out.find("{\"trace_id\":9,"));
}

// ------------------------------------------------------- time-series recorder

TEST(TimeSeries, GaugeAndCounterColumns) {
  TimeSeriesRecorder rec({.interval = Milliseconds{1'000.0}});
  double depth = 0.0;
  double cumulative = 0.0;
  rec.add_gauge("depth", [&] { return depth; });
  rec.add_counter("completed", [&] { return cumulative; });

  depth = 3.0;
  cumulative = 10.0;
  rec.tick(Milliseconds{1'000.0});
  depth = 1.0;
  cumulative = 25.0;
  rec.tick(Milliseconds{2'000.0});

  const TimeSeries& s = rec.series();
  ASSERT_EQ(s.columns.size(), 2u);
  ASSERT_EQ(s.windows.size(), 2u);
  EXPECT_DOUBLE_EQ(s.windows[0].values[0], 3.0);   // gauge: sampled as-is
  EXPECT_DOUBLE_EQ(s.windows[0].values[1], 10.0);  // counter: first delta
  EXPECT_DOUBLE_EQ(s.windows[1].values[0], 1.0);
  EXPECT_DOUBLE_EQ(s.windows[1].values[1], 15.0);  // 25 - 10
  EXPECT_DOUBLE_EQ(s.windows[1].start.value(), 1'000.0);
  EXPECT_DOUBLE_EQ(s.windows[1].end.value(), 2'000.0);
}

TEST(TimeSeries, TracksRegistryCounterByDelta) {
  MetricsRegistry reg;
  TimeSeriesRecorder rec;
  rec.track_counter(reg, "spacecdn_req_total", {{"tier", "ground"}}, "reqs");
  reg.counter("spacecdn_req_total", {{"tier", "ground"}}).inc(4);
  rec.tick(Milliseconds{1'000.0});
  reg.counter("spacecdn_req_total", {{"tier", "ground"}}).inc(6);
  rec.tick(Milliseconds{2'000.0});
  ASSERT_EQ(rec.series().columns.size(), 1u);
  EXPECT_EQ(rec.series().columns[0], "reqs");
  EXPECT_DOUBLE_EQ(rec.series().windows[0].values[0], 4.0);
  EXPECT_DOUBLE_EQ(rec.series().windows[1].values[0], 6.0);
}

TEST(TimeSeries, InstallAlignsToGridWithPartialLastWindow) {
  // Horizon off the grid: interval 3 s over a 10.5 s run closes [0,3],
  // [3,6], [6,9], and a final partial [9,10.5] exactly at the horizon.
  des::Simulator sim;
  TimeSeriesRecorder rec({.interval = Milliseconds{3'000.0}});
  rec.add_gauge("t", [&] { return sim.now().value(); });
  rec.install(sim, Milliseconds{10'500.0});
  sim.run();

  const auto& w = rec.series().windows;
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0].start.value(), 0.0);
  EXPECT_DOUBLE_EQ(w[0].end.value(), 3'000.0);
  EXPECT_DOUBLE_EQ(w[2].end.value(), 9'000.0);
  EXPECT_DOUBLE_EQ(w[3].start.value(), 9'000.0);
  EXPECT_DOUBLE_EQ(w[3].end.value(), 10'500.0);
  EXPECT_EQ(w[3].index, 3u);
}

TEST(TimeSeries, MidRunInstallProducesPartialFirstWindow) {
  // Installed at t=4.5 s on a 3 s grid: the first close is the next grid
  // boundary (6 s), so the first window is the partial [4.5, 6].
  des::Simulator sim;
  TimeSeriesRecorder rec({.interval = Milliseconds{3'000.0}});
  rec.add_gauge("one", [] { return 1.0; });
  sim.schedule(Milliseconds{4'500.0},
               [&] { rec.install(sim, Milliseconds{9'000.0}); });
  sim.run();

  const auto& w = rec.series().windows;
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0].start.value(), 4'500.0);
  EXPECT_DOUBLE_EQ(w[0].end.value(), 6'000.0);
  EXPECT_DOUBLE_EQ(w[1].start.value(), 6'000.0);
  EXPECT_DOUBLE_EQ(w[1].end.value(), 9'000.0);
}

TEST(TimeSeries, WindowCloseHookResetsAccumulators) {
  TimeSeriesRecorder rec;
  double in_window = 7.0;
  rec.add_gauge("x", [&] { return in_window; });
  rec.on_window_close([&] { in_window = 0.0; });
  rec.tick(Milliseconds{1'000.0});
  rec.tick(Milliseconds{2'000.0});
  // Probes sample before the close hook runs: window 0 sees the value,
  // window 1 sees the reset.
  EXPECT_DOUBLE_EQ(rec.series().windows[0].values[0], 7.0);
  EXPECT_DOUBLE_EQ(rec.series().windows[1].values[0], 0.0);
}

TEST(TimeSeries, ChecksumIsDeterministicAndShapeSensitive) {
  const auto record = [](double scale) {
    TimeSeriesRecorder rec;
    double v = 0.0;
    rec.add_gauge("v", [&] { return v; });
    v = 1.0 * scale;
    rec.tick(Milliseconds{1'000.0});
    v = 2.0 * scale;
    rec.tick(Milliseconds{2'000.0});
    return rec.checksum();
  };
  EXPECT_EQ(record(1.0), record(1.0));
  EXPECT_NE(record(1.0), record(2.0));
}

// Pinned digests: the chaos bench's published series and timeline checksums
// fold these, so any change to how a digest is computed must show here.
TEST(TimeSeries, ChecksumOfFixedSeriesIsPinned) {
  TimeSeries series;
  series.columns = {"completed", "p99_ms"};
  series.windows.push_back({0, Milliseconds{0.0}, Milliseconds{1'000.0}, {12.0, 48.25}});
  series.windows.push_back(
      {1, Milliseconds{1'000.0}, Milliseconds{1'750.0}, {-3.5, 1e-300}});
  EXPECT_EQ(series.checksum(), 0xc27ad2f133752fd7ULL);
}

TEST(TimeSeries, CsvAndJsonlExportShape) {
  TimeSeriesRecorder rec;
  rec.add_gauge("depth", [] { return 2.5; });
  rec.tick(Milliseconds{1'000.0});

  std::ostringstream csv;
  rec.series().write_csv(csv, "on");
  EXPECT_EQ(csv.str(),
            "run,window,start_ms,end_ms,depth\non,0,0,1000,2.5\n");

  std::ostringstream bare;
  rec.series().write_csv(bare, /*run=*/{}, /*header=*/false);
  EXPECT_EQ(bare.str(), "0,0,1000,2.5\n");

  std::ostringstream jsonl;
  rec.series().write_jsonl(jsonl, "on");
  EXPECT_EQ(jsonl.str(),
            "{\"run\":\"on\",\"window\":0,\"start_ms\":0,\"end_ms\":1000,"
            "\"depth\":2.5}\n");
}

// --------------------------------------------------------- incident timeline

TEST(Timeline, ExportsInSimTimeOrderWithStableTies) {
  IncidentTimeline tl;
  tl.record(Milliseconds{200.0}, "fault.recover", "gateway:1");
  tl.record(Milliseconds{100.0}, "fault.fail", "gateway:1");
  tl.record(Milliseconds{100.0}, "breaker.open", "gateway:1");

  std::ostringstream os;
  tl.write_jsonl(os);
  const std::string out = os.str();
  const auto fail = out.find("fault.fail");
  const auto open = out.find("breaker.open");
  const auto recover = out.find("fault.recover");
  // Sorted by sim-time; the two t=100 events keep insertion order.
  EXPECT_LT(fail, open);
  EXPECT_LT(open, recover);
}

TEST(Timeline, JsonlShapeOmitsEmptyDetailAndZeroValue) {
  IncidentTimeline tl;
  tl.record(Milliseconds{5'000.0}, "slo.alert-fire", "slo:deadline",
            "burn \"hot\"", 23.5);
  tl.record(Milliseconds{6'000.0}, "breaker.closed", "gateway:2");

  std::ostringstream os;
  tl.write_jsonl(os, "off");
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"run\":\"off\",\"at_ms\":5000,\"kind\":\"slo.alert-fire\","
                     "\"subject\":\"slo:deadline\",\"detail\":\"burn \\\"hot\\\"\","
                     "\"value\":23.5}"),
            std::string::npos);
  EXPECT_NE(out.find("{\"run\":\"off\",\"at_ms\":6000,\"kind\":\"breaker.closed\","
                     "\"subject\":\"gateway:2\"}"),
            std::string::npos);
}

TEST(Timeline, CountsByDottedPrefix) {
  IncidentTimeline tl;
  tl.record(Milliseconds{1.0}, "breaker.open", "gateway:0");
  tl.record(Milliseconds{2.0}, "breaker.half-open", "gateway:0");
  tl.record(Milliseconds{3.0}, "breaker.closed", "gateway:0");
  tl.record(Milliseconds{4.0}, "fault.fail", "satellite:7");
  EXPECT_EQ(tl.count("breaker."), 3u);
  EXPECT_EQ(tl.count("breaker.open"), 1u);
  EXPECT_EQ(tl.count("fault."), 1u);
  EXPECT_EQ(tl.count("slo."), 0u);
  EXPECT_EQ(tl.size(), 4u);
}

TEST(Timeline, ChecksumIgnoresRunLabelButNotContent) {
  IncidentTimeline a;
  a.record(Milliseconds{1.0}, "fault.fail", "gateway:3");
  IncidentTimeline b;
  b.record(Milliseconds{1.0}, "fault.fail", "gateway:3");
  EXPECT_EQ(a.checksum(), b.checksum());
  b.record(Milliseconds{2.0}, "fault.recover", "gateway:3");
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(Timeline, ChecksumOfFixedTimelineIsPinned) {
  IncidentTimeline tl;
  tl.record(Milliseconds{200.0}, "fault.recover", "gateway:1");
  tl.record(Milliseconds{100.0}, "fault.fail", "gateway:1", "region down", 3.0);
  tl.record(Milliseconds{100.0}, "breaker.open", "gateway:1");
  EXPECT_EQ(tl.checksum(), 0x5d492febbf8929a4ULL);
}

// ----------------------------------------------------------------- SLO engine

TEST(Slo, BurnRateMeasuresBudgetConsumption) {
  // objective 0.9 -> 10% error budget; a window that is 50% bad burns at
  // 5x the sustainable rate.
  SloTracker slo({.objective = 0.9,
                  .short_window = Milliseconds{2'000.0},
                  .long_window = Milliseconds{4'000.0},
                  .burn_threshold = 3.0,
                  .bucket = Milliseconds{1'000.0}});
  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{500.0}, true);
  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{500.0}, false);
  EXPECT_DOUBLE_EQ(slo.burn_rate(Milliseconds{1'000.0}, Milliseconds{1'000.0}),
                   5.0);
  EXPECT_DOUBLE_EQ(slo.burn_rate(Milliseconds{1'000.0}, Milliseconds{4'000.0}),
                   5.0);  // trailing window clamps to recorded history
  EXPECT_DOUBLE_EQ(slo.budget_consumed(), 5.0);
}

TEST(Slo, FiresWhenBothWindowsBurnAndResolvesAfter) {
  SloTracker slo({.objective = 0.9,
                  .short_window = Milliseconds{1'000.0},
                  .long_window = Milliseconds{3'000.0},
                  .burn_threshold = 3.0,
                  .bucket = Milliseconds{1'000.0}});
  std::vector<SloAlert> seen;
  slo.set_alert_hook([&](const SloAlert& a) { seen.push_back(a); });

  // Bucket 0: healthy.  Buckets 1-2: 50% bad (burn 5x > 3x threshold).
  for (int i = 0; i < 10; ++i) slo.record(Milliseconds{100.0}, true);
  slo.evaluate(Milliseconds{1'000.0});
  EXPECT_FALSE(slo.firing());

  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{1'100.0}, true);
  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{1'100.0}, false);
  // Short window (bucket 1) burns 5x, but the long window still includes
  // the healthy bucket 0: 5/20 bad = 2.5x < 3x -- no page yet.
  slo.evaluate(Milliseconds{2'000.0});
  EXPECT_FALSE(slo.firing());

  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{2'100.0}, true);
  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{2'100.0}, false);
  // Long window now 10/30 bad = 3.33x >= 3x and short 5x >= 3x: fire.
  slo.evaluate(Milliseconds{3'000.0});
  EXPECT_TRUE(slo.firing());
  EXPECT_EQ(slo.alerts_fired(), 1u);

  // Two healthy buckets: the short window (bucket 3) drops to 0 -- resolve.
  for (int i = 0; i < 10; ++i) slo.record(Milliseconds{3'100.0}, true);
  slo.evaluate(Milliseconds{4'000.0});
  EXPECT_FALSE(slo.firing());

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].firing);
  EXPECT_DOUBLE_EQ(seen[0].at.value(), 3'000.0);
  EXPECT_GE(seen[0].short_burn, 3.0);
  EXPECT_GE(seen[0].long_burn, 3.0);
  EXPECT_FALSE(seen[1].firing);
  EXPECT_DOUBLE_EQ(seen[1].at.value(), 4'000.0);
  // The transition log mirrors the hook calls.
  ASSERT_EQ(slo.alerts().size(), 2u);
  EXPECT_TRUE(slo.alerts()[0].firing);
}

TEST(Slo, InstallEvaluatesOnBucketBoundaries) {
  des::Simulator sim;
  SloTracker slo({.objective = 0.9,
                  .short_window = Milliseconds{1'000.0},
                  .long_window = Milliseconds{1'000.0},
                  .burn_threshold = 2.0,
                  .bucket = Milliseconds{1'000.0}});
  slo.install(sim, Milliseconds{3'000.0});
  // All-bad traffic in bucket 1 fires at the 2 s boundary evaluation.
  sim.schedule(Milliseconds{1'500.0}, [&] {
    for (int i = 0; i < 4; ++i) slo.record(sim.now(), false);
  });
  sim.run();
  EXPECT_EQ(slo.alerts_fired(), 1u);
  ASSERT_FALSE(slo.alerts().empty());
  EXPECT_DOUBLE_EQ(slo.alerts()[0].at.value(), 2'000.0);
}

// ------------------------------------------------------------ telemetry hub

#ifndef SPACECDN_NO_TELEMETRY

TEST(Telemetry, ScopeInstallsAndRestores) {
  EXPECT_EQ(metrics(), nullptr);
  MetricsRegistry reg;
  Tracer tracer;
  {
    const TelemetryScope scope({.metrics = &reg, .tracer = &tracer});
    EXPECT_EQ(metrics(), &reg);
    EXPECT_EQ(obs::tracer(), &tracer);
    EXPECT_EQ(recorder(), nullptr);
  }
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(obs::tracer(), nullptr);
}

TEST(Telemetry, SessionWiresEverything) {
  TelemetrySession session;
  EXPECT_EQ(metrics(), &session.metrics());
  EXPECT_EQ(tracer(), &session.tracer());
  EXPECT_EQ(recorder(), &session.recorder());
  EXPECT_EQ(profiler(), &session.profiler());
  // The session's tracer feeds its flight recorder.
  session.tracer().record(sample_trace());
  EXPECT_EQ(session.recorder().size(), 1u);
}

TEST(Telemetry, ProfileMacroRecordsSections) {
  Profiler profiler;
  {
    const TelemetryScope scope({.profiler = &profiler});
    for (int i = 0; i < 3; ++i) {
      SPACECDN_PROFILE("obs-test-section");
    }
  }
  {
    SPACECDN_PROFILE("not-installed");  // no profiler: must not record
  }
  EXPECT_EQ(profiler.calls("obs-test-section"), 3u);
  EXPECT_EQ(profiler.calls("not-installed"), 0u);
  std::ostringstream os;
  profiler.report(os);
  EXPECT_NE(os.str().find("obs-test-section"), std::string::npos);
}

// ----------------------------------------------- instrumented router (e2e)

const lsn::StarlinkNetwork& shell1() { return sim::shared_world().network(); }

cdn::ContentItem item(cdn::ContentId id) {
  return cdn::ContentItem{id, Megabytes{10.0}, data::Region::kEurope};
}

TEST(RouterTelemetry, FetchCountsTierAndEmitsTrace) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  TelemetrySession session;
  session.tracer().set_retain(1);

  const geo::GeoPoint client = data::location(data::city("Maputo"));
  const auto serving = net.snapshot().serving_satellite(client, 25.0);
  ASSERT_TRUE(serving.has_value());
  (void)fleet.cache(*serving).insert(item(1), Milliseconds{0.0});

  des::Rng rng(3);
  const auto result =
      router.fetch(client, data::country("MZ"), item(1), rng, Milliseconds{0.0});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->tier, space::FetchTier::kServingSatellite);
  EXPECT_EQ(session.metrics().counter_value("spacecdn_fetch_served_total",
                                            {{"tier", "serving-satellite"}}),
            1u);

  const Trace& trace = session.tracer().last();
  EXPECT_EQ(trace.name, "fetch");
  EXPECT_FALSE(trace.failed);
  EXPECT_DOUBLE_EQ(trace.total().value(), result->rtt.value());
  const auto tier_span =
      std::find_if(trace.spans.begin(), trace.spans.end(), [](const TraceSpan& s) {
        return s.name == "tier:serving-satellite";
      });
  ASSERT_NE(tier_span, trace.spans.end());
  EXPECT_DOUBLE_EQ(tier_span->duration.value(), result->rtt.value());
}

TEST(RouterTelemetry, ResilientTraceChildrenSumToTotal) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  TelemetrySession session;
  session.tracer().set_retain(1);

  des::Rng rng(4);
  const geo::GeoPoint client = data::location(data::city("Tokyo"));
  const auto result = router.fetch_resilient(client, data::country("JP"), item(2), rng,
                                             Milliseconds{0.0});
  ASSERT_TRUE(result.success);

  const Trace& trace = session.tracer().last();
  EXPECT_EQ(trace.name, "fetch_resilient");
  // The accounting invariant behind `ablation_churn --trace-out`: attempt
  // and backoff spans (the root's direct children) sum to total_latency.
  EXPECT_NEAR(trace.children_total().value(), result.total_latency.value(), 1e-9);
  EXPECT_NEAR(trace.total().value(), result.total_latency.value(), 1e-9);
}

TEST(RouterTelemetry, HedgeTierSpansStartWhereTheHedgeIsIssued) {
  // A cold object is served from the ground, far slower than a 0.01 ms
  // hedge delay, so every served attempt races a hedge.  The primary's tier
  // spans start with the attempt; the hedge's start hedge_delay later.
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::RouterConfig config;
  config.admit_on_fetch = false;
  config.resilience.hedge_delay = Milliseconds{0.01};
  space::SpaceCdnRouter router(net, fleet, ground, config);

  TelemetrySession session;
  session.tracer().set_retain(1);
  des::Rng rng(8);
  const auto result = router.fetch_resilient(data::location(data::city("Maputo")),
                                             data::country("MZ"), item(7), rng,
                                             Milliseconds{0.0});
  ASSERT_TRUE(result.success);
  ASSERT_TRUE(result.hedged);

  const Trace& trace = session.tracer().last();
  std::vector<const TraceSpan*> tiers;  // tier spans under the attempt, in order
  for (const TraceSpan& span : trace.spans) {
    if (span.name.rfind("tier:", 0) == 0) tiers.push_back(&span);
  }
  // Primary: serving-satellite miss, no replica, ground; the hedge repeats
  // the three from the second satellite.
  ASSERT_EQ(tiers.size(), 6u);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    EXPECT_EQ(tiers[i]->start.value(), i < 3 ? 0.0 : 0.01) << tiers[i]->name;
  }
  EXPECT_EQ(tiers[3]->name, "tier:serving-satellite");
}

TEST(RouterTelemetry, NoHedgeIsReportedWithoutASecondSatellite) {
  // On the sparse test shell some clients see exactly one satellite.  A
  // 0.01 ms hedge delay asks for a hedge on every served fetch, but there is
  // no second satellite to send it from: nothing may report one.
  lsn::StarlinkNetwork net(lsn::starlink_preset("test-shell"));
  const double mask = net.config().user_min_elevation_deg;
  std::vector<geo::GeoPoint> clients;
  for (double lat = -60.0; lat <= 60.0 && clients.size() < 5; lat += 3.0) {
    for (double lon = -180.0; lon < 180.0 && clients.size() < 5; lon += 7.0) {
      const geo::GeoPoint client{lat, lon, 0.0};
      if (net.snapshot().visible_satellites_scan(client, mask).size() == 1) {
        clients.push_back(client);
      }
    }
  }
  ASSERT_EQ(clients.size(), 5u);

  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::RouterConfig config;
  config.resilience.hedge_delay = Milliseconds{0.01};
  space::SpaceCdnRouter router(net, fleet, ground, config);

  TelemetrySession session;
  session.tracer().set_retain(1);
  des::Rng rng(9);
  std::size_t served = 0;
  for (const geo::GeoPoint& client : clients) {
    for (cdn::ContentId id = 0; id < 4; ++id) {
      const auto result = router.fetch_resilient(client, data::country("US"), item(id),
                                                 rng, Milliseconds{0.0});
      if (!result.success) continue;
      ++served;
      EXPECT_FALSE(result.hedged);
      EXPECT_FALSE(result.hedge_won);
      for (const TraceSpan& span : session.tracer().last().spans) {
        for (const auto& [key, value] : span.attrs) EXPECT_NE(key, "hedged");
      }
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_EQ(session.metrics().counter_value("spacecdn_hedge_issued_total"), 0u);
}

TEST(RouterTelemetry, ExhaustedFetchTripsFlightRecorder) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  TelemetrySession session;
  std::ostringstream dump;
  session.recorder().set_dump_sink(&dump);

  des::Rng rng(5);
  // A polar client has no shell-1 coverage: every attempt fails.
  const auto result = router.fetch_resilient({89.0, 0.0, 0.0}, data::country("US"),
                                             item(3), rng, Milliseconds{0.0});
  EXPECT_FALSE(result.success);
  EXPECT_EQ(session.recorder().trips(), 1u);
  EXPECT_EQ(session.recorder().last_trip_reason(), "fetch_resilient-exhausted");
  // The dump holds the failed fetch's own trace (recorded before the trip).
  EXPECT_EQ(dump.str().find("# flight-recorder trip: fetch_resilient-exhausted"), 0u);
  EXPECT_NE(dump.str().find("\"failed\":true"), std::string::npos);
  EXPECT_EQ(session.metrics().counter_value("spacecdn_resilient_failure_total"), 1u);
}

TEST(RouterTelemetry, CacheEventsCarryTierLabel) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  TelemetrySession session;
  const geo::GeoPoint client = data::location(data::city("Maputo"));
  des::Rng rng(6);
  // Cold fetch goes to ground; the object is admitted into the serving
  // satellite, so the satellite tier records a miss and an insert.
  const auto first =
      router.fetch(client, data::country("MZ"), item(4), rng, Milliseconds{0.0});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tier, space::FetchTier::kGround);
  EXPECT_GE(session.metrics().counter_value("spacecdn_cache_miss_total",
                                            {{"tier", "satellite"}}),
            1u);
  EXPECT_GE(session.metrics().counter_value("spacecdn_cache_insert_total",
                                            {{"tier", "satellite"}}),
            1u);
  EXPECT_GE(session.metrics().counter_value("spacecdn_cache_miss_total",
                                            {{"tier", "ground"}}),
            1u);

  const auto second =
      router.fetch(client, data::country("MZ"), item(4), rng, Milliseconds{0.0});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tier, space::FetchTier::kServingSatellite);
  EXPECT_GE(session.metrics().counter_value("spacecdn_cache_hit_total",
                                            {{"tier", "satellite"}}),
            1u);
}

#endif  // SPACECDN_NO_TELEMETRY

}  // namespace
}  // namespace spacecdn::obs
