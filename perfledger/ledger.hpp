// Shared pieces of the perfledger benchmark binary: run configuration, the
// result record each workload fills, exact percentiles, and the in-memory
// span recorder the traced runs use.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fetcam::serve {
struct EngineOptions;
}

namespace ledger {

inline double now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// CPU time of the calling thread [s]. In-process calls run on the caller
/// alone (jobs = 1) and never block, so this is their wall time minus what
/// the hypervisor stole from the vCPU: on a shared VM that steal comes in
/// bursts of 5-40% of a busy vCPU and would otherwise set the figures.
double threadCpu();
/// CPU time of this process, all threads [s].
double processCpu();

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Tiny sizes for the benchmark's own tests (same code paths, seconds
    /// of work instead of minutes).
    bool tiny = false;
    /// Test hook: flip one expected answer so the correctness gate must trip.
    bool corruptOracle = false;
    std::string workDir;    ///< scratch directory for stores, port files
    std::string traceFile;  ///< JSONL span dump (traced runs)
    std::string serveBin;   ///< fetcam_serve executable (net-exact)
    /// net-exact's knee: the p99 limit a probed rate must meet [ms]
    /// (`latency_limit_ms` of perfledger/reference.json).
    double latencyLimitMs = 0.0;
};

/// What one workload run reports. `metrics` hold end-to-end values in
/// untraced runs and per-layer values in traced runs; `hardware` holds the
/// modelled figures that must match the recorded reference bit for bit.
struct Result {
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    struct Gate {
        std::string name;
        bool ok;
        std::string detail;
    };
    std::vector<Metric> metrics;
    std::vector<Metric> detail;  ///< extra end-to-end figures, printed by name
    std::vector<std::pair<std::string, double>> hardware;
    std::vector<Gate> gates;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    void extra(const std::string& name, double value, const std::string& unit) {
        detail.push_back({name, value, unit});
    }
    void gate(const std::string& name, bool ok, const std::string& why = {}) {
        gates.push_back({name, ok, why});
    }
};

/// Exact percentile (nearest rank) of raw samples; 0 for an empty set.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// CPU for one of the workload's two busy threads: slot 0 (the caller or
/// generator) gets the highest CPU this process may use, slot 1 (the
/// mutator or server) the next one down. Pinning keeps a run on the same
/// two cores from start to end and the two threads off each other's core.
/// Slots past the last CPU wrap around.
int cpuForSlot(int slot);
/// How many CPUs this process may use (slots before they wrap).
int cpuSlots();
/// Pin a thread or process to the CPU of `slot`; pid 0 = the calling thread.
/// Set-up repetitions run on slot 0, 1, 2, ... in turn: a vCPU of a shared
/// VM can run at two speeds for minutes at a time, and spreading the
/// repetitions over every CPU keeps one slow vCPU from setting the median.
void pin(int slot, int pid = 0);

/// Peak resident set of a process in MiB (VmHWM); pid 0 = this process.
double peakRssMb(int pid = 0);

/// In-memory span recorder: name, start, end, parent span, request id and
/// the number of work units (keys, calls) the span covered. Spans are kept
/// in memory and written out as JSONL once the run ends; a layer's self
/// time is its spans' duration minus what their child spans cover.
class Spans {
public:
    explicit Spans(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }

    /// Record a finished span; returns its id (0 when disabled).
    std::uint64_t add(const char* name, double start, double end, std::uint64_t parent = 0,
                      std::uint64_t request = 0, std::int64_t units = 1);
    /// Open a span now (its id can parent others); finish() closes it.
    std::uint64_t begin(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0);
    void finish(std::uint64_t id, std::int64_t units);

    /// Self time summed per unit of work over every span named `name` [s].
    double selfPerUnit(const std::string& name) const;

    bool writeJsonl(const std::string& path) const;

private:
    struct Span {
        std::uint64_t id, parent, request;
        const char* name;
        double start, end;
        std::int64_t units;
    };
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when the recorder is on.
class Scope {
public:
    Scope(Spans& spans, const char* name, std::int64_t units = 1, std::uint64_t parent = 0,
          std::uint64_t request = 0)
        : spans_(spans), units_(units), id_(spans.begin(name, parent, request)) {}
    ~Scope() { spans_.finish(id_, units_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

private:
    Spans& spans_;
    std::int64_t units_;
    std::uint64_t id_;
};

/// Cold-path layers of an engine shape: serve.build_s (cold constructor on
/// an empty cache), array.characterize_s (cold minus warm constructor on the
/// same cache) and serve.cache_misses.
void coldPathLayers(const fetcam::serve::EngineOptions& opts, Result& r);

Result runNetExact(const Config& cfg);
Result runLpmCanary(const Config& cfg);
Result runScanChurn(const Config& cfg);
Result runSimilarity(const Config& cfg);

}  // namespace ledger
