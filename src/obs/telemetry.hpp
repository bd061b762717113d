// The telemetry hub: process-wide sink installation and fast accessors.
//
// Instrumented code never owns telemetry state; it asks the hub for the
// currently-installed sinks and does nothing when they are absent:
//
//   if (auto* m = obs::metrics()) m->counter("spacecdn_fetch_total").inc();
//
// Disabled (the default) this is one pointer load and a branch; compiling
// with SPACECDN_NO_TELEMETRY makes the accessors constexpr nullptr so the
// whole block is dead code the optimiser removes.  Benches and tests
// install sinks with a TelemetryScope (RAII) or the all-in-one
// TelemetrySession.
#pragma once

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace spacecdn::obs {

/// The pluggable sinks; any subset may be null.
struct TelemetrySinks {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  FlightRecorder* recorder = nullptr;
  Profiler* profiler = nullptr;
};

namespace detail {
/// Single mutable global; no locking -- the simulator is single-threaded and
/// parallel workers are expected to install thread-local registries and
/// merge them with MetricsRegistry::merge.
inline TelemetrySinks g_sinks{};
}  // namespace detail

/// Replaces the installed sinks, returning the previous set.
TelemetrySinks set_telemetry(const TelemetrySinks& sinks) noexcept;

#ifndef SPACECDN_NO_TELEMETRY
[[nodiscard]] inline MetricsRegistry* metrics() noexcept { return detail::g_sinks.metrics; }
[[nodiscard]] inline Tracer* tracer() noexcept { return detail::g_sinks.tracer; }
[[nodiscard]] inline FlightRecorder* recorder() noexcept { return detail::g_sinks.recorder; }
[[nodiscard]] inline Profiler* profiler() noexcept { return detail::g_sinks.profiler; }
#else
[[nodiscard]] constexpr MetricsRegistry* metrics() noexcept { return nullptr; }
[[nodiscard]] constexpr Tracer* tracer() noexcept { return nullptr; }
[[nodiscard]] constexpr FlightRecorder* recorder() noexcept { return nullptr; }
[[nodiscard]] constexpr Profiler* profiler() noexcept { return nullptr; }
#endif

/// Hot-path counter: remembers the resolved stream so steady-state
/// increments are a pointer bump instead of a name lookup.  Rebinds when a
/// different registry is installed or the bound one was cleared (epoch
/// check).  Typical use is a function-local static at the instrumented site.
class CounterHandle {
 public:
  explicit CounterHandle(std::string name, LabelSet labels = {})
      : name_(std::move(name)), labels_(std::move(labels)) {}

  void inc(std::uint64_t n = 1) {
#ifndef SPACECDN_NO_TELEMETRY
    if (MetricsRegistry* m = metrics()) resolve(*m).inc(n);
#else
    (void)n;
#endif
  }

 private:
  Counter& resolve(MetricsRegistry& m) {
    if (&m != bound_ || m.epoch() != epoch_) {
      counter_ = &m.counter(name_, labels_);
      bound_ = &m;
      epoch_ = m.epoch();
    }
    return *counter_;
  }

  std::string name_;
  LabelSet labels_;
  MetricsRegistry* bound_ = nullptr;
  std::uint64_t epoch_ = 0;
  Counter* counter_ = nullptr;
};

/// Hot-path histogram, same caching scheme as CounterHandle.
class HistogramHandle {
 public:
  HistogramHandle(std::string name, LabelSet labels, HistogramOptions options)
      : name_(std::move(name)), labels_(std::move(labels)), options_(options) {}

  void observe(double x) {
#ifndef SPACECDN_NO_TELEMETRY
    if (MetricsRegistry* m = metrics()) resolve(*m).observe(x);
#else
    (void)x;
#endif
  }

 private:
  HistogramMetric& resolve(MetricsRegistry& m) {
    if (&m != bound_ || m.epoch() != epoch_) {
      histogram_ = &m.histogram(name_, labels_, options_);
      bound_ = &m;
      epoch_ = m.epoch();
    }
    return *histogram_;
  }

  std::string name_;
  LabelSet labels_;
  HistogramOptions options_;
  MetricsRegistry* bound_ = nullptr;
  std::uint64_t epoch_ = 0;
  HistogramMetric* histogram_ = nullptr;
};

/// Installs sinks for the current scope; restores the previous ones on exit.
class TelemetryScope {
 public:
  explicit TelemetryScope(const TelemetrySinks& sinks) noexcept
      : previous_(set_telemetry(sinks)) {}
  ~TelemetryScope() { (void)set_telemetry(previous_); }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  TelemetrySinks previous_;
};

/// Owns one of everything and installs it for its lifetime: the one-liner
/// benches and examples use to switch telemetry on.
class TelemetrySession {
 public:
  explicit TelemetrySession(FlightRecorderConfig recorder_config = {});
  ~TelemetrySession() = default;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] Profiler& profiler() noexcept { return profiler_; }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  FlightRecorder recorder_;
  Profiler profiler_;
  TelemetryScope scope_;
};

}  // namespace spacecdn::obs
