// The three in-process workloads: lpm-canary, scan-churn-64k and
// similarity-4k. Each drives the public serve/apps/sim entry points from one
// caller thread (plus one mutator thread on scan-churn-64k) with engine
// jobs = 1, checks every answer against an oracle, and in traced runs times
// the benchmark's own calls into each layer.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "apps/churn.hpp"
#include "apps/lpm.hpp"
#include "apps/workloads.hpp"
#include "ledger.hpp"
#include "numeric/stats.hpp"
#include "serve/adapters.hpp"
#include "serve/query_engine.hpp"
#include "sim/similarity.hpp"

using namespace fetcam;

namespace ledger {
namespace {

namespace fs = std::filesystem;
using serve::QueryEngine;
using tcam::TernaryWord;

constexpr int kJobs = 1;

serve::EngineOptions fefetOptions(int rowsPerShard, int wordBits, std::int64_t capacity) {
    serve::EngineOptions base;
    base.shard.cell = tcam::CellKind::FeFet2;
    base.shard.sense = array::SenseScheme::LowSwing;
    base.shard.rows = rowsPerShard;
    base.shard.wordBits = wordBits;
    base.capacity = capacity;
    return base;
}

std::string freshDir(const Config& cfg, const std::string& name) {
    const fs::path dir = fs::path(cfg.workDir) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

}  // namespace

void coldPathLayers(const serve::EngineOptions& opts, Result& r) {
    auto cache = std::make_shared<serve::CharacterizationCache>();
    const double t0 = now();
    { QueryEngine cold(opts, cache); }
    const double t1 = now();
    { QueryEngine warm(opts, cache); }
    const double t2 = now();
    r.metric("serve.build_s", t1 - t0, "s");
    r.metric("array.characterize_s", (t1 - t0) - (t2 - t1), "s");
    r.metric("serve.cache_misses", static_cast<double>(cache->stats().misses), "count");
}

namespace {

void hardwareOf(QueryEngine& engine, Result& r) {
    r.hardware.push_back({"energy_per_query_J", engine.energyPerQuery()});
    r.hardware.push_back({"search_latency_s", engine.queryLatency()});
    r.hardware.push_back({"word_write_energy_J", engine.writeCost().energy});
}

/// Median time of the end-to-end call in traced iterations (span recording
/// included) against untraced ones, as a share: what tracing adds to the
/// numbers it traces. Traced runs alternate the two kinds of iteration, one
/// pass over the workload's batch pool each, so both see the same inputs and
/// the same host speed.
void traceOverhead(const std::vector<double>& untraced, const std::vector<double>& traced,
                   Result& r) {
    const double base = median(untraced);
    r.metric("trace.overhead_pct", base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0,
             "%");
}

/// `callSeconds` in caller CPU time (see threadCpu()), `wallSeconds` the
/// same calls' summed wall time.
void latencyMetrics(const std::vector<double>& callSeconds, double wallSeconds,
                    std::int64_t units, Result& r) {
    double busy = 0.0;
    for (const double s : callSeconds) busy += s;
    r.metric("qps", busy > 0.0 ? static_cast<double>(units) / busy : 0.0, "1/s");
    r.extra("wall_qps", wallSeconds > 0.0 ? static_cast<double>(units) / wallSeconds : 0.0,
            "1/s");
    r.metric("p50_ms", 1e3 * percentile(callSeconds, 0.50), "ms");
    r.extra("p75_ms", 1e3 * percentile(callSeconds, 0.75), "ms");
    r.extra("p90_ms", 1e3 * percentile(callSeconds, 0.90), "ms");
    r.extra("p99_ms", 1e3 * percentile(callSeconds, 0.99), "ms");
    r.extra("latency_samples", static_cast<double>(callSeconds.size()), "count");
}

}  // namespace

// ---------------------------------------------------------------------------
// lpm-canary: LpmService::lookupBatch on a few bit-plane blocks of routes.
// ---------------------------------------------------------------------------
Result runLpmCanary(const Config& cfg) {
    Result r;
    Spans spans(cfg.trace);
    const std::size_t routes = cfg.tiny ? 48 : 200;
    const std::size_t batch = 256;
    const std::size_t pool = cfg.tiny ? 4 : 64;
    const int setupReps = cfg.tiny || cfg.trace ? 1 : 9;
    const int restartReps = cfg.tiny ? 2 : 50;

    const auto table = apps::syntheticRoutingTable(routes, cfg.seed * 2 + 1);
    const auto stream = apps::syntheticQueryStream(table, batch * pool, 0.5, cfg.seed * 2 + 2);
    std::vector<std::vector<std::uint32_t>> batches(pool);
    std::vector<std::vector<std::optional<int>>> expected(pool);
    for (std::size_t b = 0; b < pool; ++b) {
        batches[b].assign(stream.begin() + static_cast<std::ptrdiff_t>(b * batch),
                          stream.begin() + static_cast<std::ptrdiff_t>((b + 1) * batch));
        for (const auto addr : batches[b]) expected[b].push_back(table.lookupLinear(addr));
    }
    if (cfg.corruptOracle) expected[0][0] = expected[0][0] ? std::nullopt : std::optional<int>(7);

    auto base = fefetOptions(16, apps::RoutingTable::kWordBits, 0);
    if (cfg.trace)
        coldPathLayers(serve::appEngineOptions(base, apps::RoutingTable::kWordBits,
                                               static_cast<std::int64_t>(table.size())),
                       r);

    // Set-up: cold characterization on an empty store plus the route load.
    std::vector<double> setup;
    std::optional<serve::LpmService> svc;
    std::string dir;
    for (int i = 0; i < setupReps; ++i) {
        svc.reset();
        dir = freshDir(cfg, "lpm-store");
        base.store.dir = dir;
        pin(i);
        const double t0 = processCpu();
        svc.emplace(table, base);
        setup.push_back(processCpu() - t0);
    }
    pin(0);
    hardwareOf(svc->engine(), r);

    // Closed loop: one caller, one batch in flight.
    const double measure = cfg.seconds;
    std::vector<double> calls, untracedCalls;
    double callWall = 0.0;
    std::int64_t wrong = 0, hits = 0;
    const auto replica = serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, 16,
                                                 apps::RoutingTable::kWordBits);
    const double end = now() + measure;
    for (std::uint64_t it = 0; now() < end; ++it) {
        const std::size_t b = it % pool;
        const bool traced = cfg.trace && (it / pool) % 2 == 1;
        const double cpu0 = threadCpu();
        std::optional<Scope> iter;
        if (traced) iter.emplace(spans, "iter", 0, 0, it);
        const std::uint64_t root = traced ? iter->id() : 0;
        const double t0 = now();
        const auto out = svc->lookupBatch(batches[b], kJobs);
        const double t1 = now();
        callWall += t1 - t0;
        if (traced) spans.add("apps.lookup", t0, t1, root, it, static_cast<std::int64_t>(batch));
        (cfg.trace && !traced ? untracedCalls : calls).push_back(threadCpu() - cpu0);
        if (traced) {
            std::vector<TernaryWord> keys;
            {
                Scope s(spans, "tcam.key", static_cast<std::int64_t>(batch), root, it);
                keys.reserve(batch);
                for (const auto addr : batches[b])
                    keys.push_back(TernaryWord::fromBits(addr, apps::RoutingTable::kWordBits));
            }
            {
                Scope s(spans, "serve.search", static_cast<std::int64_t>(batch), root, it);
                (void)svc->engine().searchBatch(keys, kJobs);
            }
            {
                Scope s(spans, "tcam.prepare", static_cast<std::int64_t>(batch), root, it);
                for (const auto& key : keys) (void)replica->prepare(key);
            }
        }
        r.attempted += static_cast<std::int64_t>(batch);
        for (std::size_t q = 0; q < batch; ++q) {
            wrong += out[q] != expected[b][q];
            hits += out[q].has_value();
        }
    }
    svc->engine().cache()->flush();
    svc.reset();
    r.failed = wrong;
    r.gate("lpm answers equal RoutingTable::lookupLinear", wrong == 0,
           std::to_string(wrong) + " wrong of " + std::to_string(r.attempted));

    // Warm restart: same routes from the populated characterization store.
    std::vector<double> restart;
    std::int64_t warmMisses = 0;
    for (int i = 0; i < restartReps; ++i) {
        base.store.dir = dir;
        const double t0 = processCpu();
        serve::LpmService warm(table, base);
        restart.push_back(processCpu() - t0);
        warmMisses += warm.engine().cache()->stats().misses;
        if (i + 1 == restartReps) {
            const auto out = warm.lookupBatch(batches[0], kJobs);
            r.gate("warm restart answers unchanged", out == expected[0]);
        }
    }
    r.gate("warm restart makes zero solver calls", warmMisses == 0,
           std::to_string(warmMisses) + " misses");

    const double hitFrac = r.attempted ? static_cast<double>(hits) / r.attempted : 0.0;
    if (cfg.trace) {
        r.metric("apps.lookup_ns", 1e9 * spans.selfPerUnit("apps.lookup"), "ns");
        r.metric("tcam.key_ns", 1e9 * spans.selfPerUnit("tcam.key"), "ns");
        r.metric("serve.search_ns", 1e9 * spans.selfPerUnit("serve.search"), "ns");
        r.metric("tcam.prepare_ns", 1e9 * spans.selfPerUnit("tcam.prepare"), "ns");
        r.metric("serve.hit_frac", hitFrac, "ratio");
        traceOverhead(untracedCalls, calls, r);
        if (!cfg.traceFile.empty()) spans.writeJsonl(cfg.traceFile);
    } else {
        r.metric("setup_s", median(setup), "s");
        latencyMetrics(calls, callWall, static_cast<std::int64_t>(calls.size() * batch), r);
        r.extra("restart_s", median(restart), "s");
        r.metric("rss_mb", peakRssMb(), "MiB");
        r.extra("hit_frac", hitFrac, "ratio");
    }
    return r;
}

// ---------------------------------------------------------------------------
// scan-churn-64k: searches over 65 536 rows while a second thread flaps rows.
// ---------------------------------------------------------------------------
Result runScanChurn(const Config& cfg) {
    Result r;
    Spans spans(cfg.trace);
    const std::int64_t rows = cfg.tiny ? 4096 : 65536;
    const int bits = 64;
    const int rowsPerShard = 64;
    const std::size_t batch = 64;
    const std::size_t pool = 32;
    const double updatesPerSec = 1000.0;
    const int setupReps = cfg.tiny || cfg.trace ? 1 : 5;
    const int restartReps = cfg.tiny ? 2 : 3;

    apps::ChurnSpec spec;
    spec.rows = rows;
    spec.wordBits = bits;
    spec.allWildcardFraction = 0.0;  // no match-everything rows: a miss scans every row
    spec.seed = cfg.seed;
    apps::ChurnWorkload workload(spec);
    const auto& words = workload.words();
    std::vector<std::vector<TernaryWord>> batches;
    for (std::size_t b = 0; b < pool; ++b)
        batches.push_back(workload.queryStream(batch, 0.5, cfg.seed * 1000 + b));

    auto base = fefetOptions(rowsPerShard, bits, rows);
    base.persistEntries = true;
    if (cfg.trace) coldPathLayers(base, r);

    // Set-up: cold characterization on an empty store plus the seed load.
    std::vector<double> setup;
    std::unique_ptr<QueryEngine> engine;
    std::string dir;
    double populate = 0.0;
    for (int i = 0; i < setupReps; ++i) {
        engine.reset();
        dir = freshDir(cfg, "churn-store");
        base.store.dir = dir;
        pin(i);
        const double cpu0 = processCpu();
        engine = std::make_unique<QueryEngine>(base);
        const double t1 = now();
        for (std::int64_t row = 0; row < rows; ++row)
            engine->insertAt(row, words[static_cast<std::size_t>(row)]);
        const double t2 = now();
        populate = t2 - t1;
        setup.push_back(processCpu() - cpu0);
        if (cfg.trace && i + 1 == setupReps) spans.add("serve.populate", t1, t2, 0, 0, 1);
    }
    pin(0);
    hardwareOf(*engine, r);

    // Replica shards for the traced kernel/clone replays (initial table).
    std::vector<std::unique_ptr<serve::MatchBackend>> replica;
    if (cfg.trace) {
        for (std::int64_t s = 0; s < rows / rowsPerShard; ++s) {
            replica.push_back(
                serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, rowsPerShard, bits));
            for (std::int64_t k = 0; k < rowsPerShard; ++k)
                replica.back()->set(k, words[static_cast<std::size_t>(s * rowsPerShard + k)]);
        }
    }

    // Mutator: open-loop flaps at a fixed rate; each call timed. A jthread
    // is stopped and joined on every way out of this scope.
    std::vector<double> updates;
    std::jthread mutator([&](std::stop_token stop) {
        pin(1);
        const double t0 = now();
        for (std::int64_t i = 0; !stop.stop_requested(); ++i) {
            const double due = t0 + static_cast<double>(i) / updatesPerSec;
            while (!stop.stop_requested() && now() < due)
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            if (stop.stop_requested()) break;
            const apps::ChurnOp op = workload.next();
            const double cpu0 = threadCpu();
            const double s = now();
            if (op.insert)
                engine->insertAt(op.row, op.word);
            else
                engine->erase(op.row);
            const double e = now();
            updates.push_back(threadCpu() - cpu0);
            if (cfg.trace) {
                spans.add(op.insert ? "serve.insert" : "serve.erase", s, e, 0,
                          static_cast<std::uint64_t>(i), 1);
                Scope c(spans, "serve.clone", 1, 0, static_cast<std::uint64_t>(i));
                (void)replica[static_cast<std::size_t>(op.row / rowsPerShard)]->clone();
            }
        }
    });

    // Searcher: closed loop, one batch in flight. A returned row must hold a
    // word that matches the key (rows keep their word across flaps).
    std::vector<double> calls, untracedCalls;
    double callWall = 0.0;
    std::int64_t invalid = 0, hits = 0;
    const double end = now() + cfg.seconds;
    for (std::uint64_t it = 0; now() < end; ++it) {
        const auto& keys = batches[it % pool];
        const bool traced = cfg.trace && (it / pool) % 2 == 1;
        const double cpu0 = threadCpu();
        const double t0 = now();
        const auto out = engine->searchBatch(keys, kJobs);
        const double t1 = now();
        callWall += t1 - t0;
        if (traced) spans.add("serve.search", t0, t1, 0, it, static_cast<std::int64_t>(batch));
        (cfg.trace && !traced ? untracedCalls : calls).push_back(threadCpu() - cpu0);
        if (traced) {
            Scope s(spans, "tcam.find", static_cast<std::int64_t>(batch), 0, it);
            for (const auto& key : keys) {
                const auto prepared = replica.front()->prepare(key);
                for (const auto& shard : replica)
                    if (shard->findFirst(0, rowsPerShard, prepared) >= 0) break;
            }
        }
        r.attempted += static_cast<std::int64_t>(batch);
        for (std::size_t q = 0; q < batch; ++q) {
            const auto row = out.rows[q];
            if (row >= 0) {
                ++hits;
                invalid += !words[static_cast<std::size_t>(row)].matchesUnchecked(keys[q]);
            } else if (row != -1) {
                ++invalid;
            }
        }
    }
    mutator.request_stop();
    mutator.join();
    r.attempted += static_cast<std::int64_t>(updates.size());

    // Final state against the ChurnWorkload membership oracle.
    std::vector<std::optional<TernaryWord>> oracle(static_cast<std::size_t>(rows));
    for (std::int64_t row = 0; row < rows; ++row)
        if (workload.present()[static_cast<std::size_t>(row)])
            oracle[static_cast<std::size_t>(row)] = words[static_cast<std::size_t>(row)];
    if (cfg.corruptOracle) oracle[0] = oracle[0] ? std::nullopt : std::optional(words[0]);
    auto tableMatches = [&](const QueryEngine& e) {
        std::int64_t diff = 0;
        for (std::int64_t row = 0; row < rows; ++row)
            diff += e.entryAt(row) != oracle[static_cast<std::size_t>(row)];
        return diff;
    };
    const std::int64_t tableDiff = tableMatches(*engine);
    r.gate("final table equals the churn membership oracle", tableDiff == 0,
           std::to_string(tableDiff) + " rows differ");
    const auto finalKeys = workload.queryStream(256, 0.5, cfg.seed * 1000 + 999);
    const auto finalRows = engine->searchBatch(finalKeys, kJobs).rows;
    std::int64_t scanDiff = 0;
    for (std::size_t q = 0; q < finalKeys.size(); ++q) {
        std::int64_t expect = -1;
        for (std::int64_t row = 0; row < rows && expect < 0; ++row) {
            const auto& w = oracle[static_cast<std::size_t>(row)];
            if (w && w->matchesUnchecked(finalKeys[q])) expect = row;
        }
        scanDiff += finalRows[q] != expect;
    }
    r.gate("final batch equals a naive scan", scanDiff == 0,
           std::to_string(scanDiff) + " keys differ");
    r.gate("every served row matches its key", invalid == 0,
           std::to_string(invalid) + " invalid rows");
    r.failed = invalid + tableDiff + scanDiff;
    engine->flushTable();
    engine->cache()->flush();
    engine.reset();

    // Warm restart: characterizations and the mutated table from the store.
    std::vector<double> restart;
    std::int64_t warmMisses = 0;
    for (int i = 0; i < restartReps; ++i) {
        base.store.dir = dir;
        const double t0 = processCpu();
        QueryEngine warm(base);
        restart.push_back(processCpu() - t0);
        warmMisses += warm.cache()->stats().misses;
        if (i + 1 == restartReps) {
            const std::int64_t diff = tableMatches(warm);
            r.gate("warm restart table identical", diff == 0 && !warm.tableLogStatus().degraded,
                   std::to_string(diff) + " rows differ");
            r.gate("warm restart answers unchanged",
                   warm.searchBatch(finalKeys, kJobs).rows == finalRows);
            if (cfg.trace) {
                r.metric("store.records_loaded",
                         static_cast<double>(warm.storeStatus().load.recordsLoaded), "count");
                r.metric("store.replayed",
                         static_cast<double>(warm.tableLogStatus().replayed), "count");
            }
        }
    }
    r.gate("warm restart makes zero solver calls", warmMisses == 0,
           std::to_string(warmMisses) + " misses");

    const std::int64_t searched = static_cast<std::int64_t>((calls.size() +
                                                             untracedCalls.size()) * batch);
    const double hitFrac = searched ? static_cast<double>(hits) / searched : 0.0;
    if (cfg.trace) {
        r.metric("serve.search_ns", 1e9 * spans.selfPerUnit("serve.search"), "ns");
        r.metric("tcam.find_ns", 1e9 * spans.selfPerUnit("tcam.find"), "ns");
        r.metric("serve.insert_us", 1e6 * spans.selfPerUnit("serve.insert"), "us");
        r.metric("serve.erase_us", 1e6 * spans.selfPerUnit("serve.erase"), "us");
        r.metric("serve.clone_us", 1e6 * spans.selfPerUnit("serve.clone"), "us");
        r.metric("serve.populate_s", populate, "s");
        r.metric("serve.hit_frac", hitFrac, "ratio");
        traceOverhead(untracedCalls, calls, r);
        if (!cfg.traceFile.empty()) spans.writeJsonl(cfg.traceFile);
    } else {
        r.metric("setup_s", median(setup), "s");
        latencyMetrics(calls, callWall, static_cast<std::int64_t>(calls.size() * batch), r);
        r.extra("restart_s", median(restart), "s");
        r.metric("rss_mb", peakRssMb(), "MiB");
        r.extra("update_p50_ms", 1e3 * percentile(updates, 0.50), "ms");
        r.extra("update_p99_ms", 1e3 * percentile(updates, 0.99), "ms");
        r.extra("update_samples", static_cast<double>(updates.size()), "count");
        r.extra("updates_per_s", static_cast<double>(updates.size()) / cfg.seconds, "1/s");
        r.extra("populate_s", populate, "s");
        r.extra("hit_frac", hitFrac, "ratio");
    }
    return r;
}

// ---------------------------------------------------------------------------
// similarity-4k: nearest-k and threshold batches over 4096 x 64-bit rows.
// ---------------------------------------------------------------------------
Result runSimilarity(const Config& cfg) {
    Result r;
    Spans spans(cfg.trace);
    const std::int64_t rows = cfg.tiny ? 512 : 4096;
    const int bits = 64;
    const int rowsPerShard = 64;
    const std::size_t batch = 16;
    const std::size_t pool = cfg.tiny ? 4 : 32;
    const int setupReps = cfg.tiny || cfg.trace ? 1 : 5;
    const int restartReps = cfg.tiny ? 2 : 20;

    // bench_sim's table shape: 10% wildcards, every 7th row empty.
    numeric::Rng rng = numeric::Rng::forStream(cfg.seed, 0x51AAu);
    std::vector<std::optional<TernaryWord>> entries(static_cast<std::size_t>(rows));
    for (std::int64_t row = 0; row < rows; ++row) {
        if (row % 7 == 3) continue;
        TernaryWord w(bits);
        for (int b = 0; b < bits; ++b)
            w[static_cast<std::size_t>(b)] = rng.uniform() < 0.1 ? tcam::Trit::X
                                             : rng.bernoulli(0.5) ? tcam::Trit::One
                                                                  : tcam::Trit::Zero;
        entries[static_cast<std::size_t>(row)] = std::move(w);
    }
    // Keys: 70% near-duplicates of a stored row (0-8 flips), 30% random.
    numeric::Rng keyRng = numeric::Rng::forStream(cfg.seed, 0x5EEDu);
    auto makeKey = [&] {
        TernaryWord key(bits);
        const auto& src =
            entries[static_cast<std::size_t>(keyRng.uniformInt(0, static_cast<int>(rows) - 1))];
        const bool near = src && keyRng.uniform() < 0.7;
        for (int b = 0; b < bits; ++b) {
            const auto i = static_cast<std::size_t>(b);
            const bool random = !near || (*src)[i] == tcam::Trit::X;
            key[i] = random ? (keyRng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero)
                            : (*src)[i];
        }
        if (near)
            for (int f = keyRng.uniformInt(0, 8); f > 0; --f) {
                const auto i = static_cast<std::size_t>(keyRng.uniformInt(0, bits - 1));
                key[i] = key[i] == tcam::Trit::One ? tcam::Trit::Zero : tcam::Trit::One;
            }
        return key;
    };
    sim::SimilarityOptions nearest;
    nearest.kind = sim::SimilarityKind::NearestK;
    nearest.k = 8;
    sim::SimilarityOptions threshold;
    threshold.kind = sim::SimilarityKind::Threshold;
    threshold.maxDistance = 4;
    std::vector<std::vector<TernaryWord>> batches(pool);
    std::vector<std::vector<sim::SimilarityHits>> expected(pool);
    for (std::size_t b = 0; b < pool; ++b) {
        const auto& opts = b % 2 == 0 ? nearest : threshold;
        for (std::size_t q = 0; q < batch; ++q) {
            batches[b].push_back(makeKey());
            expected[b].push_back(sim::naiveSimilarity(entries, batches[b].back(), opts));
        }
    }
    if (cfg.corruptOracle) expected[0][0].push_back({0, 0});

    auto base = fefetOptions(rowsPerShard, bits, rows);
    if (cfg.trace) coldPathLayers(base, r);
    auto load = [&](QueryEngine& e) {
        for (std::int64_t row = 0; row < rows; ++row)
            if (const auto& w = entries[static_cast<std::size_t>(row)]) e.insertAt(row, *w);
        (void)e.simCost();
    };

    // Set-up: cold characterization (search + lazy MLC) plus the row load.
    std::vector<double> setup;
    std::unique_ptr<QueryEngine> engine;
    std::string dir;
    for (int i = 0; i < setupReps; ++i) {
        engine.reset();
        dir = freshDir(cfg, "sim-store");
        base.store.dir = dir;
        pin(i);
        const double t0 = processCpu();
        engine = std::make_unique<QueryEngine>(base);
        load(*engine);
        setup.push_back(processCpu() - t0);
    }
    pin(0);
    hardwareOf(*engine, r);
    r.hardware.push_back({"mlc_energy_per_search_J", engine->simCost().energyPerSearchJ});
    r.hardware.push_back({"mlc_search_delay_s", engine->simCost().searchDelay});

    std::vector<std::unique_ptr<serve::MatchBackend>> replica;
    if (cfg.trace)
        for (std::int64_t s = 0; s < rows / rowsPerShard; ++s) {
            replica.push_back(
                serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, rowsPerShard, bits));
            for (std::int64_t k = 0; k < rowsPerShard; ++k)
                if (const auto& w = entries[static_cast<std::size_t>(s * rowsPerShard + k)])
                    replica.back()->set(k, *w);
        }

    std::vector<double> calls, untracedCalls;
    double callWall = 0.0;
    std::int64_t wrong = 0, hitKeys = 0;
    std::vector<std::size_t> counts(static_cast<std::size_t>(rows));
    const double end = now() + cfg.seconds;
    // One sample = one alternation: a nearest-k batch, then a threshold one.
    // Timing the pair keeps the sample unimodal; the two kinds cost
    // differently, and a median over a 50/50 mix of them would sit between.
    for (std::uint64_t it = 0; now() < end; ++it) {
        const std::size_t pair = 2 * (it % (pool / 2));
        const bool traced = cfg.trace && (it / (pool / 2)) % 2 == 1;
        const double cpu0 = threadCpu();
        double marks[3] = {now(), 0.0, 0.0};
        std::vector<serve::SimilarityBatchResult> outs;
        for (std::size_t k = 0; k < 2; ++k) {
            outs.push_back(engine->similarityBatch(batches[pair + k], k == 0 ? nearest : threshold,
                                                   kJobs));
            marks[k + 1] = now();
            if (traced)
                spans.add("sim.batch", marks[k], marks[k + 1], 0, it,
                          static_cast<std::int64_t>(batch));
        }
        (cfg.trace && !traced ? untracedCalls : calls).push_back(threadCpu() - cpu0);
        callWall += marks[2] - marks[0];
        for (std::size_t k = 0; k < 2; ++k) {
            const std::size_t b = pair + k;
            const auto& opts = k == 0 ? nearest : threshold;
            if (traced) {
                for (const auto& key : batches[b]) {
                    {
                        Scope s(spans, "tcam.counts", 1, 0, it);
                        const auto prepared = replica.front()->prepare(key);
                        for (std::size_t sh = 0; sh < replica.size(); ++sh)
                            replica[sh]->mismatchCounts(prepared,
                                                        counts.data() + sh * rowsPerShard);
                    }
                    Scope s(spans, "sim.select", 1, 0, it);
                    sim::TopSelector top(opts);
                    for (std::size_t row = 0; row < counts.size(); ++row)
                        if (counts[row] != tcam::kNoEntry)
                            top.consider(static_cast<std::int64_t>(row), counts[row]);
                    (void)top.take();
                }
            }
            r.attempted += static_cast<std::int64_t>(batch);
            for (std::size_t q = 0; q < batch; ++q) {
                wrong += outs[k].hits[q] != expected[b][q];
                hitKeys += !outs[k].hits[q].empty();
            }
        }
    }
    engine->cache()->flush();
    engine.reset();
    r.failed = wrong;
    r.gate("similarity answers equal sim::naiveSimilarity", wrong == 0,
           std::to_string(wrong) + " wrong of " + std::to_string(r.attempted));

    std::vector<double> restart;
    std::int64_t warmMisses = 0;
    for (int i = 0; i < restartReps; ++i) {
        base.store.dir = dir;
        const double t0 = processCpu();
        QueryEngine warm(base);
        load(warm);
        restart.push_back(processCpu() - t0);
        warmMisses += warm.cache()->stats().misses;
        if (i + 1 == restartReps)
            r.gate("warm restart answers unchanged",
                   warm.similarityBatch(batches[0], nearest, kJobs).hits == expected[0]);
    }
    r.gate("warm restart makes zero solver calls", warmMisses == 0,
           std::to_string(warmMisses) + " misses");

    const double hitFrac = r.attempted ? static_cast<double>(hitKeys) / r.attempted : 0.0;
    if (cfg.trace) {
        r.metric("sim.batch_us", 1e6 * spans.selfPerUnit("sim.batch"), "us");
        r.metric("tcam.counts_us", 1e6 * spans.selfPerUnit("tcam.counts"), "us");
        r.metric("sim.select_us", 1e6 * spans.selfPerUnit("sim.select"), "us");
        r.metric("serve.hit_frac", hitFrac, "ratio");
        traceOverhead(untracedCalls, calls, r);
        if (!cfg.traceFile.empty()) spans.writeJsonl(cfg.traceFile);
    } else {
        r.metric("setup_s", median(setup), "s");
        latencyMetrics(calls, callWall, static_cast<std::int64_t>(calls.size() * 2 * batch), r);
        r.extra("restart_s", median(restart), "s");
        r.metric("rss_mb", peakRssMb(), "MiB");
        r.extra("hit_frac", hitFrac, "ratio");
    }
    return r;
}

}  // namespace ledger
