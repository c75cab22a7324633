// common.hpp — shared plumbing for the perfbench driver: clocks, the
// in-memory span recorder, order statistics, registry deltas, /proc
// readers and the flat JSON result object the driver prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- command line ---------------------------------------------------------

struct Args {
  std::string workload;  // wc-light | scripts | serve
  std::uint64_t seed = 1;
  double seconds = 0;  // required: run.py passes the run length
  bool trace = false;
  std::string root = ".";  // repository checkout (examples/scripts lives here)
  std::string serveBin;    // congen-serve executable
  std::string traceOut;    // span dump written at exit (trace mode)
};

// ---- results --------------------------------------------------------------

/// The flat key -> number/string/list object one driver process prints as
/// the last line of its standard output.
class Result {
 public:
  void num(const std::string& key, double v) { nums_[key] = v; }
  void str(const std::string& key, const std::string& v) { strs_[key] = v; }
  void list(const std::string& key, std::vector<double> v) { lists_[key] = std::move(v); }
  void fail(const std::string& why) {
    if (!strs_.contains("error")) strs_["error"] = why;
    ok_ = false;
  }
  [[nodiscard]] bool ok() const { return ok_; }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"ok\":" << (ok_ ? "true" : "false");
    for (const auto& [k, v] : nums_) {
      os << ",\"" << k << "\":";
      if (std::isfinite(v)) {
        os << v;
      } else {
        os << "null";
      }
    }
    for (const auto& [k, v] : lists_) {
      os << ",\"" << k << "\":[";
      for (std::size_t i = 0; i < v.size(); ++i) os << (i != 0 ? "," : "") << v[i];
      os << "]";
    }
    for (const auto& [k, v] : strs_) os << ",\"" << k << "\":\"" << escape(v) << "\"";
    os << "}";
    return os.str();
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out;
  }

  bool ok_ = true;
  std::map<std::string, double> nums_;
  std::map<std::string, std::string> strs_;
  std::map<std::string, std::vector<double>> lists_;
};

// ---- order statistics -----------------------------------------------------

/// a / b, or 0 when nothing was counted (b == 0): a layer that did no
/// such work reports zero rather than no number.
inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder for the traced run: one span per call into a
/// layer, with its parent, written out at exit. Single-threaded — every
/// traced call is made from the driver's main thread. Disabled, a Scope
/// costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t startNs;
    std::int64_t endNs;
    int parent;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (!t_.on_) return;
      idx_ = static_cast<int>(t_.spans_.size());
      t_.spans_.push_back({name, t_.now(), 0, t_.current_});
      t_.current_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      t_.spans_[static_cast<std::size_t>(idx_)].endNs = t_.now();
      t_.current_ = t_.spans_[static_cast<std::size_t>(idx_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  void enable() {
    on_ = true;
    spans_.reserve(1 << 16);
  }

  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6);
    }
    return out;
  }
  [[nodiscard]] double medianMs(const std::string& name) const {
    return median(durationsMs(name));
  }

  /// Chrome trace-event JSON (one complete event per span; args.parent
  /// holds the parent span's index, -1 at the root).
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      if (i != 0) out << ",\n";
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.startNs) / 1e3
          << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  bool on_ = false;
  int current_ = -1;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- registry -------------------------------------------------------------

/// Difference of two registry snapshots (counters and histograms).
struct RegistryDelta {
  congen::obs::Snapshot before;
  congen::obs::Snapshot after;

  [[nodiscard]] double counter(const std::string& name) const {
    return static_cast<double>(after.counterValue(name)) -
           static_cast<double>(before.counterValue(name));
  }

  /// Interpolated quantile of a histogram's growth between the snapshots
  /// (linear inside a bucket); 0 when nothing was recorded.
  [[nodiscard]] double histQuantile(const std::string& name, double q) const {
    const auto* a = after.histogram(name);
    if (a == nullptr) return 0;
    const auto* b = before.histogram(name);
    std::vector<double> counts(a->counts.size());
    double total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] = static_cast<double>(a->counts[i]) -
                  (b != nullptr ? static_cast<double>(b->counts[i]) : 0.0);
      total += counts[i];
    }
    if (total <= 0) return 0;
    const double target = q * total;
    double seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0 && seen + counts[i] >= target) {
        const double lo = i == 0 ? 0.0 : static_cast<double>(a->bounds[i - 1]);
        const double hi = i < a->bounds.size() ? static_cast<double>(a->bounds[i]) : lo * 2;
        return lo + (hi - lo) * (target - seen) / counts[i];
      }
      seen += counts[i];
    }
    return NAN;
  }
};

/// True when some runtime instrument (everything but the always-on arena
/// tallies) has counted anything — i.e. metrics were enabled at some point.
inline bool registryTouched() {
  const auto snap = congen::obs::Registry::global().snapshot();
  for (const auto& [name, v] : snap.counters) {
    if (v != 0 && name.rfind("kernel.arena.", 0) != 0) return true;
  }
  for (const auto& h : snap.histograms) {
    if (h.count != 0) return true;
  }
  return false;
}

// ---- /proc ----------------------------------------------------------------

/// A "Key:   123 kB" field of /proc/<pid>/status, in MiB (NaN if absent).
inline double procStatusMb(const std::string& pid, const std::string& key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return NAN;
}

/// Host steal time so far, in seconds summed over all CPUs (the eighth
/// field of /proc/stat's "cpu" line, in USER_HZ ticks).
inline double stealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {};
  in >> cpu;
  for (double& v : f) in >> v;
  return f[7] / 100.0;
}

/// CPU time (user + system, all threads) process `pid` has used so far,
/// in seconds: fields 14 and 15 of /proc/<pid>/stat, in USER_HZ ticks.
inline double cpuSeconds(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string stat;
  std::getline(in, stat);
  const auto paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 2));  // field 3 onward
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0;
  double stime = 0;
  fields >> utime >> stime;
  return (utime + stime) / 100.0;
}

/// Host steal over a window, as a share (%) of the time the measured
/// processes were runnable: steal ÷ (their CPU time + steal). Steal only
/// accrues while a vCPU has work, so dividing by nproc × wall time would
/// let a four-thread workload read four times the steal of a one-thread
/// one under the same host; dividing by the processes' own CPU time keeps
/// the share comparable across workloads and across program changes that
/// use more or fewer threads. /proc/stat counts steal for the whole
/// machine, so other runnable work on it is counted too.
class StealProbe {
 public:
  explicit StealProbe(std::vector<std::string> pids)
      : pids_(std::move(pids)), steal0_(stealSeconds()), cpu0_(cpu()) {}

  [[nodiscard]] double sharePct() const {
    const double steal = stealSeconds() - steal0_;
    const double used = cpu() - cpu0_;
    return steal + used > 0 ? 100.0 * steal / (steal + used) : 0.0;
  }

 private:
  [[nodiscard]] double cpu() const {
    double sum = 0;
    for (const std::string& pid : pids_) sum += cpuSeconds(pid);
    return sum;
  }

  std::vector<std::string> pids_;
  double steal0_;
  double cpu0_;
};

inline std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace perfbench
