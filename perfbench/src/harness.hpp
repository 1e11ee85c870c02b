/**
 * @file
 * Benchmark harness: timing, order statistics, spans recorded around
 * the calls the benchmark makes into the library's layers, the
 * pass/fail ledger behind `error_rate`, and the metric report whose
 * last line is the machine-readable result.
 *
 * Nothing here is part of the library: spans are taken from outside,
 * around public calls (compile, plans, Executor::run, run, estimate,
 * tune, writeStore/mapStore, serve::Client requests).
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sched.h>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Wall seconds of one call of @p fn. */
template <typename Fn>
double
timed(Fn&& fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest percentile of @p v that still has at least @p beyond
 * samples above it (nearest-rank), as {percentile, value}. With fewer
 * than beyond + 1 samples there is no such tail: {0, 0}.
 */
inline std::pair<double, double>
tailWithSamplesBeyond(std::vector<double> v, std::size_t beyond = 10)
{
    if (v.size() <= beyond)
        return {0, 0};
    std::sort(v.begin(), v.end());
    const std::size_t idx = v.size() - 1 - beyond;
    const double pct =
        100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
    return {pct, v[idx]};
}

/**
 * Moves the calling thread round the CPUs it may run on (pin(k) puts
 * it on the k-th, modulo their count) and restores its affinity when
 * destroyed. A
 * single-threaded loop otherwise stays on one vCPU for most of a run,
 * and on a shared host one vCPU can run the same code 30% slower than
 * another for minutes, which a run then inherits whole; visiting every
 * vCPU in turn gives each run the same mix.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &saved_))
                cpus_.push_back(c);
        }
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void
    pin(std::size_t k)
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t saved_;
    std::vector<int> cpus_;
};

/** Peak resident set size (VmHWM) in MB; 0 when unavailable. */
inline double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

/** 64-bit FNV-1a over a canonical text dump of simulated statistics. */
inline std::string
fnv1a(const std::string& text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Shortest round-tripping text of a double, for canonical dumps. */
inline std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ------------------------------------------------------------- spans

/** One timed call into a layer. Times are microseconds since the
 *  recorder was created. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string name;         ///< "<layer>.<call>", e.g. "ir.instantiate"
    std::string label;        ///< what it ran on, e.g. "gamma/wi"
    std::string requestId;    ///< serve request id, else empty
    double startUs = 0;
    double endUs = 0;

    double durationMs() const { return (endUs - startUs) / 1e3; }
};

/**
 * Spans kept in memory and written out at the end. Disarmed (the
 * untraced runs) it records nothing and costs one branch per call.
 * Nesting is tracked per thread, so client threads of the serve
 * workload each build their own trees.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool armed) : armed_(armed), origin_(Clock::now())
    {
    }

    /** Pause (false) or resume (true) recording; a traced run times
     *  one pass of its workload disarmed to measure the overhead. */
    void arm(bool on) { armed_.store(on); }

    class Scope
    {
      public:
        Scope(SpanRecorder& rec, std::string name, std::string label,
              std::string request_id = {})
            : rec_(rec.armed_.load() ? &rec : nullptr)
        {
            if (rec_ == nullptr)
                return;
            span_.id = rec_->nextId_.fetch_add(1) + 1;
            span_.parent = current();
            span_.name = std::move(name);
            span_.label = std::move(label);
            span_.requestId = std::move(request_id);
            current() = span_.id;
            span_.startUs = rec_->nowUs();
        }

        ~Scope()
        {
            if (rec_ == nullptr)
                return;
            span_.endUs = rec_->nowUs();
            current() = span_.parent;
            std::lock_guard<std::mutex> lk(rec_->mutex_);
            rec_->spans_.push_back(std::move(span_));
        }

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanRecorder* rec_;
        Span span_;
    };

    /** Completed spans (call after every recording thread joined). */
    const std::vector<Span>& spans() const { return spans_; }

    /** Self time of every span: duration minus what its children
     *  cover, in ms, keyed by span id. */
    std::map<std::uint64_t, double>
    selfMs() const
    {
        std::map<std::uint64_t, double> self;
        for (const Span& s : spans_)
            self[s.id] += s.durationMs();
        for (const Span& s : spans_) {
            if (s.parent != 0)
                self[s.parent] -= s.durationMs();
        }
        return self;
    }

    /** Spans as JSON lines. */
    void
    write(const std::string& path, const std::string& workload) const
    {
        std::ofstream out(path);
        for (const Span& s : spans_) {
            out << "{\"workload\":\"" << workload << "\",\"id\":" << s.id
                << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
                << "\",\"label\":\"" << s.label << "\",\"request\":\""
                << s.requestId << "\",\"start_us\":" << exact(s.startUs)
                << ",\"end_us\":" << exact(s.endUs) << "}\n";
        }
    }

  private:
    static std::uint64_t&
    current()
    {
        thread_local std::uint64_t id = 0;
        return id;
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    std::atomic<bool> armed_;
    Clock::time_point origin_;
    std::atomic<std::uint64_t> nextId_{0};
    std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

// ------------------------------------------------------------ report

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Everything one workload run reports: the operation ledger (every
 * attempted operation and every failed one, failures explained on
 * stderr), the metrics, and free-form notes.
 */
class Report
{
  public:
    /** Count one operation; a false @p ok is a failure. Thread-safe. */
    void
    check(bool ok, const std::string& what)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::cerr << "CHECK FAILED: " << what << "\n";
        }
    }

    void
    metric(const std::string& name, double value, const std::string& unit)
    {
        metrics_.push_back({name, value, unit});
    }

    void note(const std::string& text) { notes_.push_back(text); }

    double
    errorRate() const
    {
        return attempted_ == 0 ? 1.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_);
    }

    /** Human-readable lines, then the one-line JSON result restricted
     *  to @p keys (the metrics this mode reports to the gate). */
    void
    print(const std::string& workload,
          const std::vector<std::string>& keys) const
    {
        std::cout << "\n== " << workload << " ==\n";
        for (const std::string& n : notes_)
            std::cout << "# " << n << "\n";
        for (const Metric& m : metrics_) {
            char line[160];
            std::snprintf(line, sizeof(line), "%-34s %16.6f %s\n",
                          m.name.c_str(), m.value, m.unit.c_str());
            std::cout << line;
        }
        char line[160];
        std::snprintf(line, sizeof(line), "%-34s %16.6f %s\n",
                      "error_rate", errorRate(), "failed/attempted");
        std::cout << line;
        std::cout << "attempted " << attempted_ << ", failed " << failed_
                  << "\n";

        std::ostringstream js;
        js << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted_
           << ", \"failed\": " << failed_ << ", \"metrics\": {";
        bool first = true;
        for (const std::string& key : keys) {
            const Metric* m = find(key);
            if (m == nullptr)
                continue;
            js << (first ? "" : ", ") << "\"" << m->name
               << "\": {\"value\": " << number(m->value)
               << ", \"unit\": \"" << m->unit << "\"}";
            first = false;
        }
        js << "}}";
        std::cout << js.str() << std::endl;
    }

    const Metric*
    find(const std::string& name) const
    {
        for (const Metric& m : metrics_) {
            if (m.name == name)
                return &m;
        }
        return nullptr;
    }

  private:
    static std::string
    number(double v)
    {
        if (!std::isfinite(v))
            return "null";
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        return buf;
    }

    std::mutex mutex_; ///< guards the ledger
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
};

} // namespace perfbench
