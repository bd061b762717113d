#include "sim/runner.hpp"

#include <cstdio>
#include <iostream>

#include "util/error.hpp"

namespace spacecdn::sim {

namespace {

std::map<std::string, std::string> scenario_file_values(const CliArgs& args) {
  const std::string path = args.get("scenario", std::string{});
  if (path.empty()) return {};
  return load_scenario_file(path);
}

ScenarioSpec resolve_spec(const ScenarioValues& values, const RunnerOptions& options) {
  ScenarioSpec spec = options.defaults;
  spec.seed = options.default_seed;
  values.apply(spec);
  return spec;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

Runner::Runner(int argc, const char* const* argv, RunnerOptions options)
    : options_(std::move(options)),
      args_(argc, argv),
      values_(scenario_file_values(args_), args_.flags()),
      spec_(resolve_spec(values_, options_)),
      world_(spec_) {
  // "scenario" rides on the CLI map; mark it consumed for typo detection.
  (void)values_.get("scenario", std::string{});

  threads_ = ThreadPool::resolve_threads(static_cast<long>(spec_.threads));
  const bool wants_telemetry =
      !spec_.metrics_out.empty() || !spec_.trace_out.empty() || spec_.profile;
  if (wants_telemetry) {
    if (threads_ > 1) {
      std::cerr << "note: telemetry flags force --threads=1 (obs sinks are "
                   "single-threaded)\n";
      threads_ = 1;
    }
    session_.emplace();
    if (!spec_.trace_out.empty()) {
      trace_file_.open(spec_.trace_out);
      if (trace_file_) {
        session_->tracer().set_jsonl_sink(&trace_file_);
      } else {
        std::cerr << "warning: cannot open --trace-out=" << spec_.trace_out
                  << "; traces will not be written\n";
      }
    }
  }
}

Runner::~Runner() {
  if (!finished_) (void)finish(true);
}

ThreadPool& Runner::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

std::string Runner::get(const std::string& key, const std::string& fallback) const {
  return values_.get(key, fallback);
}

long Runner::get(const std::string& key, long fallback) const {
  return values_.get(key, fallback);
}

double Runner::get(const std::string& key, double fallback) const {
  return values_.get(key, fallback);
}

bool Runner::get(const std::string& key, bool fallback) const {
  return values_.get(key, fallback);
}

std::ostream& Runner::csv() {
  if (spec_.csv_out.empty()) return std::cout;
  if (!csv_file_.is_open()) {
    csv_file_.open(spec_.csv_out);
    if (!csv_file_) {
      std::cerr << "warning: cannot open --csv-out=" << spec_.csv_out
                << "; writing CSV to stdout\n";
      return std::cout;
    }
  }
  return csv_file_;
}

void Runner::record(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  results_.emplace_back(key, buf);
}

void Runner::record(const std::string& key, const std::string& value) {
  results_.emplace_back(key, '"' + json_escape(value) + '"');
}

void Runner::banner() {
  std::cout << "\n=== " << options_.title << " ===\n";
  std::cout << "reproduces: " << options_.paper_ref << "\n\n";
}

void Runner::write_json(bool ok) {
  std::ofstream out(spec_.json_out);
  if (!out) {
    std::cerr << "warning: cannot open --json-out=" << spec_.json_out
              << "; results will not be written\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"" << json_escape(options_.name) << "\",\n";
  out << "  \"seed\": " << spec_.seed << ",\n";
  out << "  \"threads\": " << threads_ << ",\n";
  out << "  \"checksum\": \"" << checksum_.hex() << "\",\n";
  out << "  \"ok\": " << (ok ? "true" : "false") << ",\n";
  out << "  \"results\": {";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "    \"" << json_escape(results_[i].first) << "\": " << results_[i].second;
  }
  out << (results_.empty() ? "}" : "\n  }") << "\n";
  out << "}\n";
}

int Runner::finish(bool ok) {
  if (finished_) return exit_code_;
  finished_ = true;
  for (const auto& unknown : values_.unused()) {
    std::cerr << "warning: unknown flag --" << unknown << "\n";
  }
  std::cout << "determinism checksum: " << checksum_.hex() << std::endl;
  if (session_) {
    if (!spec_.metrics_out.empty()) {
      std::ofstream out(spec_.metrics_out);
      if (!out) {
        std::cerr << "warning: cannot open --metrics-out=" << spec_.metrics_out
                  << "; metrics will not be written\n";
      } else if (spec_.metrics_out.size() >= 5 &&
                 spec_.metrics_out.compare(spec_.metrics_out.size() - 5, 5,
                                           ".json") == 0) {
        session_->metrics().export_json(out);
      } else {
        session_->metrics().export_prometheus(out);
      }
    }
    if (spec_.profile) session_->profiler().report(std::cerr);
  }
  if (!spec_.json_out.empty()) write_json(ok);
  exit_code_ = ok ? 0 : 1;
  return exit_code_;
}

}  // namespace spacecdn::sim
