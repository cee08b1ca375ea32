#include "numeric/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "recover/sim_error.hpp"

namespace fetcam::numeric {

namespace {

std::atomic<int> gDefaultJobs{1};

// Nested parallelFor calls run inline: the outer team already owns the
// hardware, and oversubscribing would wreck determinism-debugging runs.
thread_local bool tInsideParallelFor = false;

}  // namespace

int hardwareConcurrency() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
}

int defaultJobs() { return gDefaultJobs.load(std::memory_order_relaxed); }

void setDefaultJobs(int jobs) {
    gDefaultJobs.store(jobs <= 0 ? hardwareConcurrency() : jobs, std::memory_order_relaxed);
}

int resolveJobs(int jobs) {
    if (jobs == 0) return defaultJobs();
    if (jobs < 0) return hardwareConcurrency();
    return jobs;
}

int parseJobs(const std::string& text) {
    std::size_t consumed = 0;
    long long value = 0;
    try {
        value = std::stoll(text, &consumed, 10);
    } catch (const std::exception&) {
        throw std::invalid_argument("--jobs expects an integer, got '" + text + "'");
    }
    if (consumed != text.size() || text.empty())
        throw std::invalid_argument("--jobs expects an integer, got '" + text + "'");
    if (value <= 0) return hardwareConcurrency();
    return static_cast<int>(std::min<long long>(value, kMaxJobs));
}

template <typename T>
T parseNumber(const std::string& flag, const std::string& text) {
    T value{};
    const char* last = text.data() + text.size();
    std::from_chars_result r{};
    if constexpr (std::is_floating_point_v<T>)
        r = std::from_chars(text.data(), last, value, std::chars_format::general);
    else
        r = std::from_chars(text.data(), last, value, 10);
    if (r.ec == std::errc::result_out_of_range)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "parseNumber",
                                flag + " value '" + text + "' is out of range");
    bool ok = !text.empty() && r.ec == std::errc() && r.ptr == last;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (!ok)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "parseNumber",
                                flag + " expects a number, got '" + text + "'");
    return value;
}

template int parseNumber<int>(const std::string&, const std::string&);
template std::int64_t parseNumber<std::int64_t>(const std::string&, const std::string&);
template std::uint64_t parseNumber<std::uint64_t>(const std::string&, const std::string&);
template double parseNumber<double>(const std::string&, const std::string&);

void parallelFor(int jobs, int count, const std::function<void(int)>& fn) {
    if (count <= 0) return;
    jobs = std::min(resolveJobs(jobs), count);
    if (jobs <= 1 || tInsideParallelFor) {
        for (int i = 0; i < count; ++i) fn(i);
        return;
    }

    std::atomic<int> next{0};
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
    auto worker = [&]() {
        tInsideParallelFor = true;
        for (;;) {
            const int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) break;
            try {
                fn(i);
            } catch (...) {
                errors[static_cast<std::size_t>(i)] = std::current_exception();
            }
        }
        tInsideParallelFor = false;
    };

    std::vector<std::thread> team;
    team.reserve(static_cast<std::size_t>(jobs) - 1);
    for (int t = 1; t < jobs; ++t) team.emplace_back(worker);
    worker();  // the calling thread is part of the team
    for (auto& t : team) t.join();

    // Sequential semantics: surface the failure a serial loop would have hit
    // first. Later indices' errors are intentionally dropped (a serial loop
    // would never have reached them).
    for (auto& e : errors)
        if (e) std::rethrow_exception(e);
}

}  // namespace fetcam::numeric
