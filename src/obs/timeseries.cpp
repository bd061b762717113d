#include "obs/timeseries.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "des/stats.hpp"
#include "util/error.hpp"

namespace spacecdn::obs {
namespace {

void write_number(std::ostream& os, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  os << buffer;
}

}  // namespace

void TimeSeries::write_csv(std::ostream& os, std::string_view run,
                           bool header) const {
  if (header) {
    if (!run.empty()) os << "run,";
    os << "window,start_ms,end_ms";
    for (const std::string& column : columns) os << ',' << column;
    os << '\n';
  }
  for (const SeriesWindow& window : windows) {
    if (!run.empty()) os << run << ',';
    os << window.index << ',';
    write_number(os, window.start.value());
    os << ',';
    write_number(os, window.end.value());
    for (const double value : window.values) {
      os << ',';
      write_number(os, value);
    }
    os << '\n';
  }
}

void TimeSeries::write_jsonl(std::ostream& os, std::string_view run) const {
  for (const SeriesWindow& window : windows) {
    os << '{';
    if (!run.empty()) os << "\"run\":\"" << run << "\",";
    os << "\"window\":" << window.index << ",\"start_ms\":";
    write_number(os, window.start.value());
    os << ",\"end_ms\":";
    write_number(os, window.end.value());
    for (std::size_t i = 0; i < window.values.size() && i < columns.size();
         ++i) {
      os << ",\"" << columns[i] << "\":";
      write_number(os, window.values[i]);
    }
    os << "}\n";
  }
}

std::uint64_t TimeSeries::checksum() const {
  des::Fnv1aChecksum sum;
  for (const SeriesWindow& window : windows) {
    sum.add(window.start.value());
    sum.add(window.end.value());
    for (const double value : window.values) sum.add(value);
  }
  return sum.digest();
}

TimeSeriesRecorder::TimeSeriesRecorder(TimeSeriesConfig config)
    : config_(config) {
  SPACECDN_EXPECT(config_.interval.value() > 0.0,
                  "time-series recorder: interval must be positive");
}

void TimeSeriesRecorder::add_column(std::string name, WindowProbe probe,
                                    bool delta) {
  SPACECDN_EXPECT(series_.windows.empty(),
                  "time-series recorder: register columns before the first tick");
  series_.columns.push_back(std::move(name));
  columns_.push_back(Column{std::move(probe), delta, 0.0});
}

void TimeSeriesRecorder::add_gauge(std::string column, Probe probe) {
  add_column(std::move(column),
             [probe = std::move(probe)](Milliseconds, Milliseconds) {
               return probe();
             },
             /*delta=*/false);
}

void TimeSeriesRecorder::add_gauge(std::string column, WindowProbe probe) {
  add_column(std::move(column), std::move(probe), /*delta=*/false);
}

void TimeSeriesRecorder::add_counter(std::string column, Probe probe) {
  add_column(std::move(column),
             [probe = std::move(probe)](Milliseconds, Milliseconds) {
               return probe();
             },
             /*delta=*/true);
}

void TimeSeriesRecorder::track_counter(MetricsRegistry& registry,
                                       const std::string& metric,
                                       const LabelSet& labels,
                                       std::string column) {
  // std::map nodes are stable, so the counter reference outlives rehashes.
  const Counter& counter = registry.counter(metric, labels);
  add_counter(column.empty() ? metric : std::move(column),
              [&counter] { return static_cast<double>(counter.value()); });
}

void TimeSeriesRecorder::on_window_close(std::function<void()> hook) {
  close_hooks_.push_back(std::move(hook));
}

void TimeSeriesRecorder::install(des::Simulator& sim, Milliseconds horizon) {
  last_close_ = sim.now();
  const double interval = config_.interval.value();
  // Grid boundaries strictly inside (now, horizon): computed as k*interval
  // (not accumulated) so long runs don't drift off the grid.
  auto k = static_cast<std::uint64_t>(std::floor(sim.now().value() / interval)) + 1;
  for (double t = static_cast<double>(k) * interval; t < horizon.value();
       t = static_cast<double>(++k) * interval) {
    if (t <= sim.now().value()) continue;  // now exactly on a boundary
    sim.schedule_at(Milliseconds{t},
                    [this, t] { tick(Milliseconds{t}); });
  }
  if (horizon > sim.now()) {
    sim.schedule_at(horizon, [this, horizon] { tick(horizon); });
  }
}

void TimeSeriesRecorder::tick(Milliseconds now) {
  SPACECDN_EXPECT(now >= last_close_,
                  "time-series recorder: tick moved backwards");
  SeriesWindow window;
  window.index = series_.windows.size();
  window.start = last_close_;
  window.end = now;
  window.values.reserve(columns_.size());
  for (Column& column : columns_) {
    const double sample = column.probe(window.start, window.end);
    if (column.delta) {
      window.values.push_back(sample - column.last);
      column.last = sample;
    } else {
      window.values.push_back(sample);
    }
  }
  last_close_ = now;
  series_.windows.push_back(std::move(window));
  for (const auto& hook : close_hooks_) hook();
}

}  // namespace spacecdn::obs
