// net-exact: the real fetcam_serve --listen process over loopback, driven by
// the benchmark's own single-thread open-loop generator.
//
// The generator pipelines 64-key QueryBatch requests over up to three
// connections on a fixed schedule (request i is due at t0 + i * 64 / rate,
// whatever the server's progress) and times every request from when it was
// due, so a stall shows as latency on the requests behind it. Two phases:
// a fixed 20 k queries/s phase for the latency percentiles, then a search
// for the knee: probes at rising rates until one's p99 breaks the latency
// limit, its backlog grows or its sends lag, then bisection between the
// highest rate that held and the lowest that failed; the knee is
// interpolated inside that bracket. Every reply is checked against a scalar
// scan of the same entries after the timed phases.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "ledger.hpp"
#include "listen_workload.hpp"
#include "net/protocol.hpp"
#include "serve/query_engine.hpp"

extern char** environ;

using namespace fetcam;

namespace ledger {
namespace {

namespace fs = std::filesystem;

constexpr int kEntries = 4096;
constexpr int kWordBits = 64;
constexpr int kKeysPerRequest = 64;
constexpr int kConnections = 3;
constexpr std::uint32_t kServerMaxBatch = 4096;  ///< fetcam_serve's --max-batch default
constexpr double kFixedRate = 20000.0;   ///< queries/s of the latency phase
/// Median send lateness that marks the generator itself as saturated and
/// voids the phase (the host's stalls only reach the tail of the lateness).
constexpr double kLagLimitMs = 1.0;
/// Knee search. The offered rate grows from kKneeStartRate by kKneeGrowth
/// per probe until a probe fails, then the search bisects (in log space)
/// between the highest rate that held and the lowest that failed until they
/// are within kKneeResolution of each other. No fixed ceiling: the growth
/// reaches 25k * 1.25^27 (10 M q/s) if every probe holds, far past what the
/// generator can offer, so a knee the search cannot bracket fails the run.
/// The search has kKneeProbes probe slots of 0.7 * run_seconds / kKneeProbes.
constexpr double kKneeStartRate = 25000.0;
constexpr double kKneeGrowth = 1.25;
constexpr double kKneeResolution = 1.02;
/// Falling below this after failures, the search gives up (no knee).
constexpr double kKneeFloorRate = 1000.0;
constexpr int kKneeProbes = 28;
/// A failing probe is run again, up to twice, before it counts as failed:
/// one host stall longer than the limit breaks a short probe's p99 on its own.
constexpr int kKneeRerunsPerProbe = 2;

// ---------------------------------------------------------------------------
// The server process.
// ---------------------------------------------------------------------------
class ServerProcess {
public:
    ServerProcess(const Config& cfg, const std::string& storeDir, const std::string& tag,
                  std::uint64_t entrySeed, int slot = 1)
        : portFile_(fs::path(cfg.workDir) / ("port-" + tag)),
          jsonFile_(fs::path(cfg.workDir) / ("serve-" + tag + ".json")) {
        fs::remove(portFile_);
        fs::remove(jsonFile_);
        const std::string logFile = (fs::path(cfg.workDir) / ("serve-" + tag + ".log")).string();
        std::vector<std::string> args = {cfg.serveBin,   "--listen",    "0",
                                         "--port-file",  portFile_,     "--entries",
                                         std::to_string(kEntries),      "--word-bits",
                                         std::to_string(kWordBits),     "--jobs",
                                         "1",            "--seed",      std::to_string(entrySeed),
                                         "--store",      storeDir,      "--json",
                                         jsonFile_};
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, logFile.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        started_ = now();
        const int rc = posix_spawn(&pid_, cfg.serveBin.c_str(), &actions, nullptr, argv.data(),
                                   environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) throw std::runtime_error("cannot start " + cfg.serveBin);
        pin(slot, pid_);
    }

    ~ServerProcess() { stop(); }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    /// Wait until the server publishes its port; throws if it dies first.
    int waitForPort(double timeout = 120.0) {
        const double deadline = now() + timeout;
        while (now() < deadline) {
            std::ifstream in(portFile_);
            std::string text((std::istreambuf_iterator<char>(in)), {});
            if (!text.empty() && text.back() == '\n') return std::stoi(text);
            int status = 0;
            if (pid_ > 0 && waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("fetcam_serve exited before listening");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        throw std::runtime_error("fetcam_serve did not start listening");
    }

    double started() const { return started_; }
    int pid() const { return pid_; }

    /// SIGTERM (graceful drain), wait, and return the exit-time JSON report.
    std::string stop() {
        if (pid_ <= 0) return {};
        ::kill(pid_, SIGTERM);
        int status = 0;
        const double deadline = now() + 30.0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (now() > deadline) {
                ::kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pid_ = -1;
        std::ifstream in(jsonFile_);
        return std::string((std::istreambuf_iterator<char>(in)), {});
    }

private:
    std::string portFile_, jsonFile_;
    pid_t pid_ = -1;
    double started_ = 0.0;
};

/// Offset of the value of member `key` of the JSON object that opens at
/// json[open], looking only at that object's own members (not at members of
/// objects nested in it); npos when it has none.
std::size_t memberValue(const std::string& json, std::size_t open, const std::string& key) {
    int depth = 0;
    for (std::size_t i = open; i < json.size(); ++i) {
        const char c = json[i];
        if (c == '"') {
            std::size_t end = i + 1;
            while (end < json.size() && json[end] != '"') end += json[end] == '\\' ? 2 : 1;
            std::size_t after = json.find_first_not_of(" \n", end + 1);
            if (depth == 1 && after != std::string::npos && json[after] == ':' &&
                json.compare(i + 1, end - i - 1, key) == 0)
                return json.find_first_not_of(" \n", after + 1);
            i = end;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if ((c == '}' || c == ']') && --depth == 0) {
            break;
        }
    }
    return std::string::npos;
}

/// The number at `path` (member names from the top-level object down) in
/// the server's exit report.
double jsonNumber(const std::string& json, std::initializer_list<const char*> path) {
    std::size_t at = json.find('{');
    std::string where;
    for (const char* key : path) {
        where += (where.empty() ? "" : ".") + std::string(key);
        if (at == std::string::npos || (at = memberValue(json, at, key)) == std::string::npos)
            throw std::runtime_error("server report lacks " + where);
    }
    return std::strtod(json.c_str() + at, nullptr);
}

// ---------------------------------------------------------------------------
// The generator's connections.
// ---------------------------------------------------------------------------
struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
};

void greet(int fd, int port, double timeout) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        throw std::runtime_error("connect failed");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::string buf;
    const double deadline = now() + timeout;
    while (true) {
        const auto res = net::decodeFrame(buf, net::kDefaultMaxFrameBytes);
        if (res.status == net::DecodeResult::Status::Ok) {
            if (res.frame.type != net::MsgType::Hello ||
                !net::decodeHello(res.frame.body, nullptr))
                throw std::runtime_error("server did not greet with Hello");
            return;
        }
        if (res.status == net::DecodeResult::Status::Bad || now() > deadline)
            throw std::runtime_error("no Hello from server");
        pollfd p{fd, POLLIN, 0};
        ::poll(&p, 1, 100);
        char chunk[4096];
        const auto n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n == 0) throw std::runtime_error("server closed before Hello");
        if (n > 0) buf.append(chunk, static_cast<std::size_t>(n));
    }
}

/// Connect and read the server's Hello (blocking), then go non-blocking.
int connectAndGreet(int port, double timeout = 10.0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    try {
        greet(fd, port, timeout);
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

struct Request {
    int pool = 0;
    double due = 0.0;
    double encodeStart = 0.0, sent = 0.0, done = 0.0;
    bool answered = false;
    std::uint8_t admission = 0;
    std::vector<std::int64_t> rows;
    std::vector<net::QueryStatus> status;
};

struct Phase {
    double rate = 0.0;  ///< offered queries/s
    double start = 0.0, end = 0.0;
    std::size_t first = 0, last = 0;  ///< request index range [first, last)
};

class Generator {
public:
    Generator(int port, std::vector<net::QueryBatchBody> pool, Spans& spans)
        : pool_(std::move(pool)), spans_(spans) {
        try {
            for (int c = 0; c < kConnections; ++c)
                conns_.push_back({connectAndGreet(port), {}, {}});
        } catch (...) {
            for (auto& c : conns_) ::close(c.fd);
            throw;
        }
    }
    ~Generator() {
        for (auto& c : conns_) ::close(c.fd);
    }
    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

    /// Offer `rate` queries/s for `seconds` from `start`; returns the phase.
    /// Keeps serving replies of earlier phases meanwhile. Frames of traced
    /// phases are kept for the server-side replays.
    Phase run(double rate, double start, double seconds, bool traced) {
        Phase ph{rate, start, start + seconds, requests_.size(), requests_.size()};
        const double interval = kKeysPerRequest / rate;
        for (std::size_t k = 0;; ++k) {
            const double due = start + static_cast<double>(k) * interval;
            if (due >= ph.end) break;
            while (now() < due) pump(due);
            send(due, traced);
        }
        ph.last = requests_.size();
        return ph;
    }

    /// Serve replies until nothing is outstanding or `deadline` passes.
    void drain(double deadline) {
        while (outstanding_ > 0 && now() < deadline) pump(std::min(deadline, now() + 0.01));
    }

    /// Requests sent from now on, in traced phases, get spans.
    void markTracedFrom() { tracedFrom_ = requests_.size(); }

    const std::vector<Request>& requests() const { return requests_; }
    const std::vector<std::string>& capturedFrames() const { return frames_; }
    std::int64_t protocolErrors() const { return protoErrors_; }

private:
    void send(double due, bool traced) {
        const std::size_t id = requests_.size();
        Request req;
        req.pool = static_cast<int>(id % pool_.size());
        req.due = due;
        req.encodeStart = now();
        auto& body = pool_[static_cast<std::size_t>(req.pool)];
        body.requestId = id + 1;
        std::string frame = net::encodeFrame(net::MsgType::QueryBatch, net::encodeQueryBatch(body));
        req.sent = now();
        if (traced) frames_.push_back(frame);
        requests_.push_back(std::move(req));
        ++outstanding_;
        Conn& c = conns_[id % conns_.size()];
        c.out += frame;
        flush(c);
    }

    void flush(Conn& c) {
        while (!c.out.empty()) {
            const auto n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
            if (n > 0) {
                c.out.erase(0, static_cast<std::size_t>(n));
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else {
                throw std::runtime_error("connection to server lost");
            }
        }
    }

    /// Wait for socket activity until `until` at the latest, handle it.
    void pump(double until) {
        std::vector<pollfd> fds;
        for (const auto& c : conns_)
            fds.push_back({c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
        const double wait = std::max(0.0, until - now());
        timespec ts{static_cast<time_t>(wait), static_cast<long>((wait - std::floor(wait)) * 1e9)};
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents & POLLOUT) flush(conns_[i]);
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) receive(conns_[i]);
        }
    }

    void receive(Conn& c) {
        char chunk[1 << 16];
        while (true) {
            const auto n = ::recv(c.fd, chunk, sizeof chunk, 0);
            if (n > 0) {
                c.in.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (n < 0 && errno == EINTR) continue;
            throw std::runtime_error("server closed a connection");
        }
        std::size_t used = 0;
        while (true) {
            const auto res = net::decodeFrame(std::string_view(c.in).substr(used),
                                              net::kDefaultMaxFrameBytes);
            if (res.status == net::DecodeResult::Status::NeedMore) break;
            if (res.status == net::DecodeResult::Status::Bad)
                throw std::runtime_error("bad frame from server: " + res.message);
            used += res.consumed;
            if (res.frame.type != net::MsgType::BatchReply) {
                ++protoErrors_;
                continue;
            }
            auto reply = net::decodeBatchReply(res.frame.body, nullptr);
            if (!reply || reply->requestId == 0 || reply->requestId > requests_.size() ||
                requests_[reply->requestId - 1].answered) {
                ++protoErrors_;
                continue;
            }
            Request& req = requests_[reply->requestId - 1];
            req.done = now();
            req.answered = true;
            req.admission = reply->admission;
            req.rows = std::move(reply->rows);
            req.status = std::move(reply->status);
            --outstanding_;
            if (spans_.enabled() && tracedRequest(reply->requestId)) {
                const auto root = spans_.add("net.request", req.due, req.done, 0,
                                             reply->requestId, 1);
                spans_.add("net.encode", req.encodeStart, req.sent, root, reply->requestId, 1);
                spans_.add("net.rtt", req.sent, req.done, root, reply->requestId, 1);
            }
        }
        c.in.erase(0, used);
    }

    bool tracedRequest(std::uint64_t id) const {
        return id > tracedFrom_ && id <= tracedFrom_ + frames_.size();
    }

    std::vector<net::QueryBatchBody> pool_;
    Spans& spans_;
    std::vector<Conn> conns_;
    std::vector<Request> requests_;
    std::vector<std::string> frames_;
    std::size_t outstanding_ = 0;
    std::size_t tracedFrom_ = 0;
    std::int64_t protoErrors_ = 0;
};

struct PhaseStats {
    double p50 = 0.0, p75 = 0.0, p90 = 0.0, p99 = 0.0, lagP50 = 0.0, lagP99 = 0.0;
    std::size_t samples = 0, unanswered = 0;
};

PhaseStats phaseStats(const std::vector<Request>& requests, const Phase& ph) {
    std::vector<double> lat, lag;
    PhaseStats s;
    for (std::size_t i = ph.first; i < ph.last; ++i) {
        const auto& r = requests[i];
        lag.push_back(r.sent - r.due);
        if (r.answered)
            lat.push_back(r.done - r.due);
        else
            ++s.unanswered;
    }
    s.samples = lat.size();
    s.p50 = 1e3 * percentile(lat, 0.50);
    s.p75 = 1e3 * percentile(lat, 0.75);
    s.p90 = 1e3 * percentile(lat, 0.90);
    s.p99 = 1e3 * percentile(lat, 0.99);
    s.lagP50 = 1e3 * percentile(lag, 0.50);
    s.lagP99 = 1e3 * percentile(lag, 0.99);
    return s;
}

/// Server-side layers, replayed in process on an engine of the server's
/// shape over the captured request frames of the 20 k q/s phase: frame +
/// body decode per request, submitBatch per coalesced batch of the server's
/// mean batch size (serve.submit_us) and of one request, reply encode per
/// request. The socket + poll + coalesce wait is what remains of the round
/// trip once the one-request compute is taken off.
void traceReplays(const std::vector<tcam::TernaryWord>& entries,
                  const std::vector<std::string>& frames, double batchQueries, Result& r,
                  Spans& spans) {
    serve::EngineOptions opts;
    opts.shard.cell = tcam::CellKind::FeFet2;
    opts.shard.sense = array::SenseScheme::LowSwing;
    opts.shard.rows = 16;
    opts.shard.wordBits = kWordBits;
    opts.capacity = kEntries;
    coldPathLayers(opts, r);
    serve::QueryEngine engine(opts);
    for (const auto& e : entries) engine.insert(e);

    std::vector<net::QueryBatchBody> decoded;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        Scope s(spans, "net.decode", 1, 0, i + 1);
        const auto res = net::decodeFrame(frames[i], net::kDefaultMaxFrameBytes);
        auto body = net::decodeQueryBatch(res.frame.body, kWordBits, kServerMaxBatch, nullptr);
        if (!body) throw std::runtime_error("captured frame does not decode");
        decoded.push_back(std::move(*body));
    }
    // submitBatch per coalesced batch of `perBatch` requests.
    auto replaySubmit = [&](std::size_t perBatch, const char* span) {
        std::vector<serve::BatchResult> results;
        for (std::size_t i = 0; i + perBatch <= decoded.size(); i += perBatch) {
            std::vector<tcam::TernaryWord> keys;
            for (std::size_t j = i; j < i + perBatch; ++j)
                keys.insert(keys.end(), decoded[j].keys.begin(), decoded[j].keys.end());
            const std::vector<double> deadlines(keys.size(), 0.0);
            serve::SubmitOptions so;
            so.deadlines = &deadlines;
            Scope s(spans, span, 1, 0, i + 1);
            results.push_back(engine.submitBatch(keys, so, 1).result);
        }
        return results;
    };
    (void)replaySubmit(std::max<std::size_t>(
                           1, static_cast<std::size_t>(std::lround(batchQueries / kKeysPerRequest))),
                       "serve.submit");
    // At 20 k q/s requests are 3.2 ms apart against a 0.5 ms coalesce
    // window, so each batch the traced requests rode in held one request.
    const auto results = replaySubmit(1, "serve.submit.one");
    for (std::size_t i = 0; i < results.size(); ++i) {
        Scope s(spans, "net.reply", 1, 0, i + 1);
        net::BatchReplyBody reply;
        reply.requestId = decoded[i].requestId;
        reply.rows = results[i].rows;
        for (const auto row : reply.rows)
            reply.status.push_back(row >= 0 ? net::QueryStatus::Hit : net::QueryStatus::Miss);
        (void)net::encodeFrame(net::MsgType::BatchReply, net::encodeBatchReply(reply));
    }
    const double decodeUs = 1e6 * spans.selfPerUnit("net.decode");
    const double submitUs = 1e6 * spans.selfPerUnit("serve.submit");
    const double replyUs = 1e6 * spans.selfPerUnit("net.reply");
    r.metric("net.decode_us", decodeUs, "us");
    r.metric("serve.submit_us", submitUs, "us");
    r.metric("net.reply_us", replyUs, "us");
    r.metric("net.wait_us",
             1e6 * (spans.selfPerUnit("net.rtt") - spans.selfPerUnit("serve.submit.one")) -
                 decodeUs - replyUs,
             "us");
}

/// CPU seconds a process has used (user + system), from /proc.
double processCpuSeconds(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)), {});
    const auto close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i)
        if (i == 14 || i == 15) ticks += std::atof(field.c_str());
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Queries/s answered inside the phase's window.
double deliveredRate(const std::vector<Request>& requests, const Phase& ph) {
    std::int64_t answered = 0;
    for (const auto& r : requests) answered += r.answered && r.done >= ph.start && r.done < ph.end;
    return static_cast<double>(answered * kKeysPerRequest) / (ph.end - ph.start);
}

}  // namespace

Result runNetExact(const Config& cfg) {
    Result r;
    Spans spans(cfg.trace);
    if (cfg.serveBin.empty()) throw std::runtime_error("net-exact needs --serve-bin");
    if (cfg.latencyLimitMs <= 0.0) throw std::runtime_error("net-exact needs --latency-limit-ms");
    const int reps = cfg.tiny || cfg.trace ? 1 : 5;
    const int restartReps = cfg.tiny ? 1 : 7;
    const std::uint64_t entrySeed = cfg.seed * 7919 + 17;

    // Inputs: the entries the server seeds from entrySeed, and a pool of
    // requests, half of whose keys are crafted to hit a random entry.
    const auto entries = tools::makeListenEntries(entrySeed, kEntries, kWordBits);
    numeric::Rng rng = numeric::Rng::forStream(cfg.seed, 0x4E45u);
    const std::size_t poolSize = cfg.tiny ? 16 : 256;
    std::vector<net::QueryBatchBody> pool(poolSize);
    std::vector<std::vector<std::int64_t>> expected(poolSize);
    for (std::size_t p = 0; p < poolSize; ++p)
        for (int k = 0; k < kKeysPerRequest; ++k) {
            auto key = k % 2 == 0
                           ? tools::specializeKey(
                                 entries[static_cast<std::size_t>(rng.uniformInt(0, kEntries - 1))],
                                 rng)
                           : tools::randomKey(kWordBits, rng);
            std::int64_t row = -1;
            for (std::size_t e = 0; e < entries.size() && row < 0; ++e)
                if (entries[e].matchesUnchecked(key)) row = static_cast<std::int64_t>(e);
            expected[p].push_back(row);
            pool[p].keys.push_back(std::move(key));
        }
    if (cfg.corruptOracle) expected[0][0] = expected[0][0] >= 0 ? -1 : 0;

    // Set-up: server start on an empty store until it answers the greeting,
    // in the server process's CPU time (steal excluded, see threadCpu()).
    // Each start runs on the next CPU in turn (see pin()).
    std::vector<double> setup;
    std::unique_ptr<ServerProcess> server;
    std::string storeDir;
    int port = 0;
    for (int i = 0; i < reps; ++i) {
        if (server) server->stop();
        storeDir = (fs::path(cfg.workDir) / "net-store").string();
        fs::remove_all(storeDir);
        fs::create_directories(storeDir);
        server = std::make_unique<ServerProcess>(cfg, storeDir, "cold", entrySeed, i);
        port = server->waitForPort();
        ::close(connectAndGreet(port));
        setup.push_back(processCpuSeconds(server->pid()));
    }
    pin(1, server->pid());

    // Timed phases.
    const double limitMs = cfg.latencyLimitMs;
    const double fixedSeconds = 0.3 * cfg.seconds;
    const double stepSeconds = 0.7 * cfg.seconds / kKneeProbes;
    std::vector<Phase> steps;
    std::vector<PhaseStats> stepStats;
    Phase fixedUntraced{}, fixed{};
    std::int64_t protoErrors = 0;
    std::vector<Request> requests;
    std::vector<std::string> frames;
    double knee = 0.0, rssMb = 0.0;
    // Busy share of one core at the highest probe that held: the server
    // process (its poll thread does all the serving at --jobs 1) and the
    // generator thread. Which one nears 1.0 says where the knee sits.
    double kneeServerBusy = 0.0, kneeLoadBusy = 0.0;
    // Queries the server answered, and the CPU seconds it used, in the
    // probes it could not keep up with: its capacity per CPU-second.
    double saturatedQueries = 0.0, saturatedCpu = 0.0;
    // The bracket: `heldRate` is the highest rate that held, `failedRate` the lowest
    // that failed (0 while none has).
    double heldRate = 0.0, failedRate = 0.0, heldP99 = 0.0, failedP99 = 0.0, failedDelivered = 0.0;
    std::string failedWhy;
    {
        Generator gen(port, pool, spans);
        double t = now() + 0.01;
        if (cfg.trace) {
            fixedUntraced = gen.run(kFixedRate, t, fixedSeconds / 2, false);
            t = fixedUntraced.end;
            gen.markTracedFrom();
            fixed = gen.run(kFixedRate, t, fixedSeconds / 2, true);
        } else {
            fixed = gen.run(kFixedRate, t, fixedSeconds, false);
        }
        gen.drain(now() + 5.0);
        // Peak memory serving the reference load (the knee search's overload
        // backlog would make it depend on how far the search got).
        rssMb = peakRssMb(server->pid());
        double rate = kKneeStartRate;
        t = now() + 0.01;
        int reruns = 0;
        for (int probe = 0; probe < kKneeProbes; ++probe) {
            const double serverCpu0 = processCpuSeconds(server->pid());
            const double loadCpu0 = threadCpu();
            const Phase ph = gen.run(rate, t, stepSeconds, false);
            const double span = ph.end - ph.start;
            const double serverCpu = processCpuSeconds(server->pid()) - serverCpu0;
            const double serverBusy = serverCpu / span;
            const double loadBusy = (threadCpu() - loadCpu0) / span;
            gen.drain(std::min(ph.end + limitMs * 1e-3, now() + 1.0));
            const PhaseStats st = phaseStats(gen.requests(), ph);
            steps.push_back(ph);
            stepStats.push_back(st);
            // A request still unanswered a latency limit after the probe
            // ended is the backlog outgrowing the server.
            std::string why;
            if (st.lagP50 > kLagLimitMs)
                why = "generator lagged";
            else if (st.p99 > limitMs)
                why = "p99 over the limit";
            else if (st.unanswered > 0)
                why = "backlog grew";
            if (!why.empty() && why != "generator lagged") {
                saturatedQueries += deliveredRate(gen.requests(), ph) * span;
                saturatedCpu += serverCpu;
            }
            if (why.empty()) {
                heldRate = rate;
                heldP99 = st.p99;
                kneeServerBusy = serverBusy;
                kneeLoadBusy = loadBusy;
            } else if (reruns < kKneeRerunsPerProbe) {
                ++reruns;
                gen.drain(now() + 5.0);
                t = now() + 0.01;
                continue;
            } else {
                failedRate = rate;
                failedWhy = why;
                failedP99 = st.p99;
                failedDelivered = deliveredRate(gen.requests(), ph);
                gen.drain(now() + 5.0);
            }
            reruns = 0;
            if (heldRate > 0.0 && failedRate > 0.0 && failedRate / heldRate <= kKneeResolution) break;
            rate = failedRate == 0.0 ? heldRate * kKneeGrowth
                   : heldRate == 0.0 ? failedRate / kKneeGrowth
                                 : std::sqrt(heldRate * failedRate);
            if (rate < kKneeFloorRate) break;
            t = now() + 0.01;
        }
        // Between the highest rate that heldRate and the lowest that failedRate:
        // where the limit falls between their p99 values (log space), or,
        // when the backlog grew, the rate the server actually delivered.
        knee = heldRate;
        if (heldRate > 0.0 && failedRate > 0.0 && failedWhy == "p99 over the limit" &&
            failedP99 > heldP99 && heldP99 > 0.0) {
            const double x = std::clamp(
                std::log(limitMs / heldP99) / std::log(failedP99 / heldP99), 0.0, 1.0);
            knee = heldRate * std::pow(failedRate / heldRate, x);
        } else if (heldRate > 0.0 && failedRate > 0.0 && failedWhy == "backlog grew") {
            knee = std::clamp(failedDelivered, heldRate, failedRate);
        }
        gen.drain(now() + 20.0);
        protoErrors = gen.protocolErrors();
        requests = gen.requests();
        frames = gen.capturedFrames();
        if (cfg.trace) {
            // Request-level layers of the traced half of the fixed phase.
            r.metric("net.encode_us", 1e6 * spans.selfPerUnit("net.encode"), "us");
            r.metric("net.rtt_us", 1e6 * spans.selfPerUnit("net.rtt"), "us");
        }
    }
    const std::string report = server->stop();
    server.reset();

    // Correctness: every reply against the scalar scan, after the timing.
    std::int64_t wrong = 0, failed = 0, queriesSent = 0;
    for (const auto& req : requests) {
        queriesSent += kKeysPerRequest;
        const auto& want = expected[static_cast<std::size_t>(req.pool)];
        if (!req.answered || req.admission != 0 || req.rows.size() != want.size()) {
            failed += kKeysPerRequest;
            continue;
        }
        for (std::size_t k = 0; k < want.size(); ++k) {
            const bool ok = req.status[k] == net::QueryStatus::Hit ||
                            req.status[k] == net::QueryStatus::Miss;
            failed += !ok;
            wrong += ok && req.rows[k] != want[k];
        }
    }
    r.attempted = queriesSent;
    r.failed = failed + wrong;
    r.gate("every reply row equals a scalar scan", wrong == 0,
           std::to_string(wrong) + " wrong rows");
    r.gate("no shed, expired or missing replies", failed == 0,
           std::to_string(failed) + " queries failed");
    r.gate("no unexpected frames from the server", protoErrors == 0);

    auto counter = [&](const char* key) {
        return jsonNumber(report, {"deterministic", "server", key});
    };
    const double sQueries = counter("queries");
    const double sHits = counter("hits");
    const double sMisses = counter("misses");
    const double sShed = counter("shedQueries");
    const double sExpired = counter("expiredQueries");
    const double sBatches = counter("batches");
    r.gate("server accounting closes: queries == hits + misses + shed + expired",
           sQueries == sHits + sMisses + sShed + sExpired &&
               sQueries == static_cast<double>(queriesSent),
           "server counted " + std::to_string(static_cast<long long>(sQueries)) + " of " +
               std::to_string(queriesSent) + " sent");
    r.hardware.push_back(
        {"energy_per_query_J", jsonNumber(report, {"deterministic", "energyPerQueryJ"})});
    r.hardware.push_back({"search_latency_s", jsonNumber(report, {"deterministic", "latencyS"})});
    r.hardware.push_back(
        {"word_write_energy_J", jsonNumber(report, {"deterministic", "writes", "energyJ"}) /
                                    jsonNumber(report, {"deterministic", "writes", "inserts"})});

    // Warm restart: the same store, now holding every characterization.
    std::vector<double> restart;
    double warmMisses = 0.0;
    for (int i = 0; i < restartReps; ++i) {
        ServerProcess warm(cfg, storeDir, "warm", entrySeed);
        ::close(connectAndGreet(warm.waitForPort()));
        restart.push_back(now() - warm.started());
        warmMisses += jsonNumber(warm.stop(), {"volatile", "cache", "misses"});
    }
    r.gate("warm restart makes zero solver calls", warmMisses == 0.0,
           std::to_string(static_cast<long long>(warmMisses)) + " misses");

    r.gate("knee bracketed: a probed rate held and a higher one failed",
           heldRate > 0.0 && failedRate > heldRate,
           "held " + std::to_string(std::lround(heldRate)) + " q/s, failed " +
               std::to_string(std::lround(failedRate)) + " q/s");
    r.gate("some probe saturated the server", saturatedCpu > 0.0,
           "every failing probe failed on the generator's side");
    const PhaseStats fixedStats = phaseStats(requests, fixed);
    r.gate("generator kept to its schedule in the latency phase",
           fixedStats.lagP50 <= kLagLimitMs,
           "send lag p50 " + std::to_string(fixedStats.lagP50) + " ms");
    const double hitFrac = sQueries > 0.0 ? sHits / sQueries : 0.0;
    if (cfg.trace) {
        traceReplays(entries, frames, sQueries / sBatches, r, spans);
        r.metric("net.batch_queries", sQueries / sBatches, "count");
        r.metric("net.shed_frac", sQueries > 0.0 ? (sShed + sExpired) / sQueries : 0.0, "ratio");
        r.metric("load.send_lag_ms", fixedStats.lagP99, "ms");
        r.metric("net.server_busy_frac", kneeServerBusy, "ratio");
        r.metric("load.busy_frac", kneeLoadBusy, "ratio");
        r.metric("serve.hit_frac", hitFrac, "ratio");
        const double base = phaseStats(requests, fixedUntraced).p50;
        r.metric("trace.overhead_pct", base > 0.0 ? 100.0 * (fixedStats.p50 - base) / base : 0.0,
                 "%");
        if (!cfg.traceFile.empty()) spans.writeJsonl(cfg.traceFile);
    } else {
        r.metric("setup_s", median(setup), "s");
        r.metric("qps", saturatedCpu > 0.0 ? saturatedQueries / saturatedCpu : 0.0, "1/s");
        r.metric("p50_ms", fixedStats.p50, "ms");
        r.metric("rss_mb", rssMb, "MiB");
        r.extra("p75_ms", fixedStats.p75, "ms");
        r.extra("p90_ms", fixedStats.p90, "ms");
        r.extra("p99_ms", fixedStats.p99, "ms");
        r.extra("restart_s", median(restart), "s");
        r.extra("knee_qps", knee, "1/s");
        r.extra("knee_held_qps", heldRate, "1/s");
        r.extra("knee_failed_qps", failedRate, "1/s");
        r.extra("latency_limit_ms", limitMs, "ms");
        r.extra("fixed_rate_qps", kFixedRate, "1/s");
        r.extra("latency_samples", static_cast<double>(fixedStats.samples), "count");
        r.extra("send_lag_p99_ms", fixedStats.lagP99, "ms");
        r.extra("knee_probes_run", static_cast<double>(steps.size()), "count");
        r.extra("server_busy_at_knee", kneeServerBusy, "ratio");
        r.extra("generator_busy_at_knee", kneeLoadBusy, "ratio");
        r.extra("batch_queries", sQueries / sBatches, "count");
        r.extra("hit_frac", hitFrac, "ratio");
    }
    std::fprintf(stderr, "net-exact: knee %.0f q/s (held %.0f, %s at %.0f q/s)\n", knee, heldRate,
                 failedWhy.empty() ? "none failed" : failedWhy.c_str(), failedRate);
    for (std::size_t i = 0; i < steps.size(); ++i)
        std::fprintf(stderr,
                     "  step %.0f q/s: p50 %.3f ms p99 %.3f ms lag p50 %.3f p99 %.3f ms n=%zu\n",
                     steps[i].rate, stepStats[i].p50, stepStats[i].p99, stepStats[i].lagP50,
                     stepStats[i].lagP99, stepStats[i].samples);
    return r;
}

}  // namespace ledger
