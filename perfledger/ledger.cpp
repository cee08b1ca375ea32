// fetcam_ledger — one workload of the perfledger benchmark per invocation.
//
//   fetcam_ledger <net-exact|lpm-canary|scan-churn-64k|similarity-4k>
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//                 [--trace-file FILE] [--serve-bin PATH] [--latency-limit-ms MS]
//                 [--tiny] [--corrupt-oracle]
//
// Prints one JSON object: the workload's metrics (end-to-end when untraced,
// per-layer when traced), extra end-to-end figures, the modelled hardware
// figures, every correctness gate and the attempted/failed counts. Exit code
// 0 when every gate held, 1 when one failed, 2 on bad usage or a crash.
// perfledger/run.py turns this into the benchmark's result line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <sched.h>
#include <time.h>

#include "ledger.hpp"

namespace ledger {

namespace {
const std::vector<int>& allowedCpus() {
    static const std::vector<int> cpus = [] {
        std::vector<int> list;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set)) list.push_back(c);
        return list;
    }();
    return cpus;
}
}  // namespace

namespace {
double clockSeconds(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double threadCpu() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double processCpu() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

int cpuSlots() { return static_cast<int>(allowedCpus().size()); }

int cpuForSlot(int slot) {
    const auto& allowed = allowedCpus();
    if (allowed.empty()) return -1;
    const int n = static_cast<int>(allowed.size());
    return allowed[static_cast<std::size_t>(n - 1 - slot % n)];
}

void pin(int slot, int pid) {
    const int cpu = cpuForSlot(slot);
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(pid, sizeof set, &set);
}

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

double peakRssMb(int pid) {
    const std::string path =
        pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

std::uint64_t Spans::add(const char* name, double start, double end, std::uint64_t parent,
                         std::uint64_t request, std::int64_t units) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({id, parent, request, name, start, end, units});
    return id;
}

std::uint64_t Spans::begin(const char* name, std::uint64_t parent, std::uint64_t request) {
    if (!enabled_) return 0;
    const double start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({spans_.size() + 1, parent, request, name, start, start, 0});
    return spans_.size();
}

void Spans::finish(std::uint64_t id, std::int64_t units) {
    if (!enabled_ || id == 0) return;
    const double end = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = end;
    spans_[id - 1].units = units;
}

double Spans::selfPerUnit(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, double> childTime;
    for (const auto& s : spans_)
        if (s.parent != 0) childTime[s.parent] += s.end - s.start;
    double self = 0.0;
    std::int64_t units = 0;
    for (const auto& s : spans_) {
        if (name != s.name) continue;
        const auto it = childTime.find(s.id);
        self += (s.end - s.start) - (it == childTime.end() ? 0.0 : it->second);
        units += s.units;
    }
    return units > 0 ? self / static_cast<double>(units) : 0.0;
}

bool Spans::writeJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os) return false;
    os.precision(17);
    for (const auto& s : spans_)
        os << "{\"id\": " << s.id << ", \"name\": \"" << s.name << "\", \"start\": " << s.start
           << ", \"end\": " << s.end << ", \"parent\": " << s.parent
           << ", \"request\": " << s.request << ", \"units\": " << s.units << "}\n";
    return static_cast<bool>(os);
}

}  // namespace ledger

namespace {

std::string jsonEscape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out;
}

std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void printResult(const ledger::Config& cfg, const ledger::Result& r, bool ok) {
    std::ostringstream os;
    auto metricList = [&](const std::vector<ledger::Result::Metric>& list) {
        os << "{";
        for (std::size_t i = 0; i < list.size(); ++i)
            os << (i ? ", " : "") << "\"" << list[i].name << "\": {\"value\": "
               << number(list[i].value) << ", \"unit\": \"" << list[i].unit << "\"}";
        os << "}";
    };
    os << "{\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
       << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"correct\": " << (ok ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": ";
    metricList(r.metrics);
    os << ", \"detail\": ";
    metricList(r.detail);
    os << ", \"hardware\": {";
    for (std::size_t i = 0; i < r.hardware.size(); ++i)
        os << (i ? ", " : "") << "\"" << r.hardware[i].first
           << "\": " << number(r.hardware[i].second);
    os << "}, \"gates\": [";
    for (std::size_t i = 0; i < r.gates.size(); ++i)
        os << (i ? ", " : "") << "{\"name\": \"" << r.gates[i].name
           << "\", \"ok\": " << (r.gates[i].ok ? "true" : "false") << ", \"detail\": \""
           << jsonEscape(r.gates[i].detail) << "\"}";
    os << "]}\n";
    std::fputs(os.str().c_str(), stdout);
    std::fflush(stdout);
}

int usage() {
    std::fprintf(stderr,
                 "usage: fetcam_ledger <net-exact|lpm-canary|scan-churn-64k|similarity-4k> "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR [--trace-file FILE] "
                 "[--serve-bin PATH] [--latency-limit-ms MS] [--tiny] [--corrupt-oracle]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    ledger::Config cfg;
    cfg.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string opt = argv[i];
        const bool hasValue = i + 1 < argc;
        if (opt == "--seed" && hasValue)
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (opt == "--seconds" && hasValue)
            cfg.seconds = std::atof(argv[++i]);
        else if (opt == "--trace" && hasValue)
            cfg.trace = std::string(argv[++i]) == "1";
        else if (opt == "--work-dir" && hasValue)
            cfg.workDir = argv[++i];
        else if (opt == "--trace-file" && hasValue)
            cfg.traceFile = argv[++i];
        else if (opt == "--serve-bin" && hasValue)
            cfg.serveBin = argv[++i];
        else if (opt == "--latency-limit-ms" && hasValue)
            cfg.latencyLimitMs = std::atof(argv[++i]);
        else if (opt == "--tiny")
            cfg.tiny = true;
        else if (opt == "--corrupt-oracle")
            cfg.corruptOracle = true;
        else
            return usage();
    }
    if (cfg.seconds <= 0.0 || cfg.workDir.empty()) return usage();

    (void)ledger::cpuSlots();  // read the allowed CPUs before pinning narrows them
    ledger::pin(0);
    try {
        ledger::Result r;
        if (cfg.workload == "net-exact")
            r = ledger::runNetExact(cfg);
        else if (cfg.workload == "lpm-canary")
            r = ledger::runLpmCanary(cfg);
        else if (cfg.workload == "scan-churn-64k")
            r = ledger::runScanChurn(cfg);
        else if (cfg.workload == "similarity-4k")
            r = ledger::runSimilarity(cfg);
        else
            return usage();
        bool ok = r.failed == 0 && r.attempted > 0;
        for (const auto& g : r.gates) ok = ok && g.ok;
        printResult(cfg, r, ok);
        return ok ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fetcam_ledger %s: %s\n", cfg.workload.c_str(), e.what());
        return 2;
    }
}
