#include "harness/exec/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <set>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/exec/cache.hh"
#include "harness/exec/wire.hh"
#include "harness/interrupt.hh"
#include "harness/report.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {
namespace exec {

namespace {

/** Overlay environment variable @p name, when set, onto @p out as an
 *  int; a value that is not one is fatal. */
void
envInt(const char *name, int &out)
{
    // The process is single-threaded; nothing writes the environment
    // concurrently.
    const char *v = std::getenv(name); // NOLINT(concurrency-mt-unsafe)
    if (v == nullptr)
        return;
    std::optional<std::int64_t> n = sim::parseInt(v);
    if (!n || *n < std::numeric_limits<int>::min() ||
        *n > std::numeric_limits<int>::max())
        sim::fatal("environment variable %s expects an integer, got '%s'",
                   name, v);
    out = static_cast<int>(*n);
}

} // namespace

void
ExecOptions::applyTestEnv()
{
    envInt("GPUMP_EXEC_TEST_KILL_AFTER", testKillAfterResults);
    envInt("GPUMP_EXEC_TEST_ABORT_AFTER", testAbortAfterResults);
    const char *name = "GPUMP_EXEC_CACHE_STRICT";
    if (const char *v = std::getenv(name)) { // NOLINT(concurrency-mt-unsafe)
        std::optional<bool> b = sim::parseBool(v);
        if (!b)
            sim::fatal("environment variable %s expects a boolean, got "
                       "'%s'",
                       name, v);
        strictCache = *b;
    }
}

namespace {

double
monoSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** write() the whole buffer; false on any unrecoverable error. */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Worker process body: read one assignment at a time, execute it via
 * Runner::runOne (the request list is inherited through fork, so only
 * the *index* crosses the pipe), ship the wire-encoded result back.
 * A request failure travels back as an "error" message; the worker
 * itself stays up — the coordinator decides what aborts the batch.
 */
[[noreturn]] void
workerMain(Runner &runner, const std::vector<RunRequest> &requests,
           const ExecOptions &opt, int inFd, int outFd)
{
    // The coordinator's interrupt handlers and pipes belong to the
    // parent: default dispositions here, so Ctrl-C on the process
    // group kills workers while the coordinator winds down cleanly.
    // SIGPIPE stays ignored, as spawn() left it.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);

    std::string buf;
    char chunk[4096];
    auto nextLine = [&](std::string &line) -> bool {
        for (;;) {
            std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                line.assign(buf, 0, nl);
                buf.erase(0, nl + 1);
                return true;
            }
            ssize_t n = ::read(inFd, chunk, sizeof chunk);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            if (n == 0)
                return false;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
    };

    std::string line;
    while (nextLine(line)) {
        std::int64_t idx = -1;
        try {
            JsonValue msg = parseJson(line);
            const std::string &type =
                msg.get("type", "command").asString("command");
            if (type == "quit")
                ::_exit(0);
            if (type != "run")
                ::_exit(2);
            idx = msg.get("index", "command").asInt64("command");
            if (idx < 0 ||
                static_cast<std::size_t>(idx) >= requests.size())
                ::_exit(2);
        } catch (const std::exception &) {
            ::_exit(2); // protocol garbage: die, coordinator requeues
        }

        // Fault-injection hook: simulate a wedged worker (infinite
        // syscall loop) so the watchdog/requeue path is testable.
        if (opt.testHangOnIndex == idx) {
            for (;;)
                ::pause();
        }

        std::string out;
        try {
            RunResult r =
                runner.runOne(requests[static_cast<std::size_t>(idx)]);
            r.index = static_cast<std::size_t>(idx);
            out = encodeResult(r);
        } catch (const std::exception &e) {
            JsonObject o;
            o.add("type", "error")
                .add("index", idx)
                .add("message", std::string(e.what()));
            out = o.str();
        }
        out += '\n';
        if (!writeAll(outFd, out))
            ::_exit(1); // coordinator is gone
    }
    ::_exit(0);
}

/** Consecutive deaths of one worker slot (without an intervening
 *  completed result) before that slot is abandoned.  When every slot
 *  is abandoned the remaining requests run in-process. */
constexpr int kMaxRespawns = 3;

/** Requeues of one request after worker deaths or timeouts before
 *  the coordinator runs it in-process.  (A request that *fails* —
 *  sim::FatalError — is never retried: the failure is deterministic
 *  and aborts the batch, as it does in process.) */
constexpr int kMaxRetries = 2;

/** Base of the exponential respawn backoff: a slot's k-th consecutive
 *  respawn waits kBackoffBaseSec * 2^(k-1) seconds. */
constexpr double kBackoffBaseSec = 0.25;

/** One forked worker and its coordinator-side state. */
struct Slot
{
    pid_t pid = -1;
    int toFd = -1;   ///< Coordinator -> worker commands.
    int fromFd = -1; ///< Worker -> coordinator results.
    std::string rxBuf;
    /** Request index in flight; -1 when idle. */
    std::int64_t inflight = -1;
    /** Watchdog deadline (monotonic seconds); 0 = none armed. */
    double deadline = 0.0;
    /** Deaths since the last completed result (requeue/backoff state
     *  machine; reset to 0 by every result). */
    int consecutiveFailures = 0;
    /** Do not respawn before this time (exponential backoff). */
    double respawnAt = 0.0;
    /** Slot gave up: consecutiveFailures exceeded kMaxRespawns. */
    bool abandoned = false;

    bool running() const { return pid > 0; }
};

class Coordinator
{
  public:
    Coordinator(Runner &runner, const std::vector<RunRequest> &requests,
                const ExecOptions &opt)
        : runner_(runner), requests_(requests), opt_(opt),
          results_(requests.size()), have_(requests.size(), 0),
          retries_(requests.size(), 0)
    {
    }

    ~Coordinator() { killAll(); }

    std::vector<RunResult> run(ExecStats *stats);

  private:
    void spawn(std::size_t si, bool respawn);
    void dispatch();
    void handleLine(std::size_t si, const std::string &line);
    void onDeath(std::size_t si, const char *why);
    void runLocal(std::size_t idx);
    void accept(std::size_t idx, RunResult r);
    void finish(std::size_t idx, RunResult r);
    void killAll();
    void windDown();
    void checkStaleEntries();

    bool anyInflight() const
    {
        for (const Slot &s : slots_) {
            if (s.inflight >= 0)
                return true;
        }
        return false;
    }

    /** False once no worker will ever run a request: a one-job
     *  batch starts none, and abandoned slots never come back. */
    bool workersLeft() const
    {
        for (const Slot &s : slots_) {
            if (!s.abandoned)
                return true;
        }
        return false;
    }

    Runner &runner_;
    const std::vector<RunRequest> &requests_;
    ExecOptions opt_;
    std::vector<RunResult> results_;
    std::vector<char> have_;
    std::vector<int> retries_;
    std::vector<std::string> keys_;
    std::unique_ptr<ResultCache> cache_;
    std::vector<Slot> slots_;
    std::deque<std::size_t> pending_;
    std::size_t completed_ = 0;
    std::exception_ptr firstError_;
    ExecStats stats_;
    bool killHookFired_ = false;
};

void
Coordinator::killAll()
{
    for (Slot &s : slots_) {
        if (!s.running())
            continue;
        ::kill(s.pid, SIGKILL);
        int status = 0;
        ::waitpid(s.pid, &status, 0);
        ::close(s.toFd);
        ::close(s.fromFd);
        s.pid = -1;
        s.toFd = s.fromFd = -1;
    }
}

void
Coordinator::spawn(std::size_t si, bool respawn)
{
    Slot &s = slots_[si];
    // Writing to a worker that died between poll()s must surface as
    // an error return from write(), never a fatal signal.
    std::signal(SIGPIPE, SIG_IGN);
    int cmd[2], res[2];
    // The coordinator is single-threaded; strerror's static buffer is
    // safe here (and the process dies on this path anyway).
    if (::pipe(cmd) != 0 || ::pipe(res) != 0)
        sim::fatal("exec: pipe() failed: %s",
                   std::strerror(errno)); // NOLINT(concurrency-mt-unsafe)
    // Buffered stdio written twice after fork() would corrupt the
    // bench's (deterministic) stdout.
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = ::fork();
    if (pid < 0)
        sim::fatal("exec: fork() failed: %s",
                   std::strerror(errno)); // NOLINT(concurrency-mt-unsafe)
    if (pid == 0) {
        // Child: drop every coordinator-side fd — holding a sibling's
        // pipe end open would mask that sibling's EOF from the
        // coordinator's poll loop.
        ::close(cmd[1]);
        ::close(res[0]);
        for (const Slot &other : slots_) {
            if (!other.running())
                continue;
            ::close(other.toFd);
            ::close(other.fromFd);
        }
        workerMain(runner_, requests_, opt_, cmd[0], res[1]);
    }
    ::close(cmd[0]);
    ::close(res[1]);
    s.pid = pid;
    s.toFd = cmd[1];
    s.fromFd = res[0];
    s.rxBuf.clear();
    s.inflight = -1;
    s.deadline = 0.0;
    if (respawn) {
        ++stats_.respawns;
        std::fprintf(stderr, "[exec] worker %zu respawned (pid %ld)\n",
                     si, static_cast<long>(pid));
    }
}

/** Take in @p r as request @p idx's result, from a worker, the cache
 *  or an in-process run.  A decoded result carries no identity
 *  (wire.hh), so it is stamped from the request here. */
void
Coordinator::accept(std::size_t idx, RunResult r)
{
    r.index = idx;
    r.tag = requests_[idx].tag;
    r.scheme = requests_[idx].scheme;
    results_[idx] = std::move(r);
    have_[idx] = 1;
    ++completed_;
}

void
Coordinator::finish(std::size_t idx, RunResult r)
{
    if (have_[idx])
        return; // defensive: never double-complete a request
    accept(idx, std::move(r));
    if (cache_) {
        cache_->store(keys_[idx], results_[idx]);
        if (opt_.testAbortAfterResults >= 0 &&
            cache_->stores() >=
                static_cast<std::uint64_t>(opt_.testAbortAfterResults)) {
            // Fault-injection hook: die the hard way mid-sweep (after
            // the entry above was committed atomically), so resume
            // tests get a genuinely interrupted cache directory.
            std::fprintf(stderr,
                         "[exec] test hook: aborting after %llu cached "
                         "results\n",
                         static_cast<unsigned long long>(
                             cache_->stores()));
            std::fflush(stderr);
            ::_exit(3);
        }
    }
    if (runner_.progressFn())
        runner_.progressFn()(completed_, requests_.size(),
                             requests_[idx], results_[idx]);
}

void
Coordinator::runLocal(std::size_t idx)
{
    try {
        RunResult r = runner_.runOne(requests_[idx]);
        ++stats_.inProcess;
        finish(idx, std::move(r));
    } catch (...) {
        if (!firstError_)
            firstError_ = std::current_exception();
    }
}

void
Coordinator::onDeath(std::size_t si, const char *why)
{
    Slot &s = slots_[si];
    if (!s.running())
        return;
    ::kill(s.pid, SIGKILL); // idempotent; ensures reaping terminates
    int status = 0;
    ::waitpid(s.pid, &status, 0);
    ::close(s.toFd);
    ::close(s.fromFd);
    s.pid = -1;
    s.toFd = s.fromFd = -1;
    s.rxBuf.clear();
    std::int64_t idx = s.inflight;
    s.inflight = -1;
    s.deadline = 0.0;
    ++s.consecutiveFailures;

    if (idx >= 0) {
        ++stats_.requeues;
        std::size_t u = static_cast<std::size_t>(idx);
        ++retries_[u];
        std::fprintf(stderr,
                     "[exec] worker %zu died (%s); requeueing request "
                     "%lld (attempt %d/%d)\n",
                     si, why, static_cast<long long>(idx), retries_[u],
                     kMaxRetries + 1);
        if (retries_[u] > kMaxRetries) {
            std::fprintf(stderr,
                         "[exec] request %lld: retries exhausted; "
                         "degrading to in-process execution\n",
                         static_cast<long long>(idx));
            runLocal(u);
        } else {
            pending_.push_front(u);
        }
    } else {
        std::fprintf(stderr, "[exec] worker %zu died (%s) while idle\n",
                     si, why);
    }

    if (s.consecutiveFailures > kMaxRespawns) {
        s.abandoned = true;
        std::fprintf(stderr,
                     "[exec] worker %zu: %d consecutive failures; "
                     "abandoning the slot\n",
                     si, s.consecutiveFailures);
        if (!workersLeft() && !pending_.empty()) {
            std::fprintf(stderr,
                         "[exec] no usable workers left; running %zu "
                         "remaining requests in-process\n",
                         pending_.size());
        }
    } else {
        int k = s.consecutiveFailures;
        double backoff = kBackoffBaseSec *
            static_cast<double>(1u << static_cast<unsigned>(
                                    std::min(k - 1, 10)));
        s.respawnAt = monoSeconds() + backoff;
    }
}

void
Coordinator::handleLine(std::size_t si, const std::string &line)
{
    Slot &s = slots_[si];
    try {
        JsonValue msg = parseJson(line);
        if (const JsonValue *type = msg.find("type")) {
            // Request failure: deterministic, so never retried — it
            // aborts the batch exactly as an in-process run does.
            const std::string &t = type->asString("message type");
            if (t != "error")
                sim::fatal("exec: unexpected message type '%s'",
                           t.c_str());
            std::int64_t idx =
                msg.get("index", "error index").asInt64("error index");
            const std::string &what =
                msg.get("message", "error message")
                    .asString("error message");
            if (!firstError_) {
                std::string tag = idx >= 0 &&
                        static_cast<std::size_t>(idx) <
                            requests_.size()
                    ? requests_[static_cast<std::size_t>(idx)].tag
                    : std::string("?");
                firstError_ = std::make_exception_ptr(sim::FatalError(
                    "request '" + tag + "' failed: " + what));
            }
            s.inflight = -1;
            s.deadline = 0.0;
            s.consecutiveFailures = 0;
            return;
        }
        RunResult r = decodeResult(msg);
        if (s.inflight < 0 ||
            r.index != static_cast<std::size_t>(s.inflight))
            sim::fatal("exec: worker %zu answered request %zu while "
                       "%lld was in flight",
                       si, r.index,
                       static_cast<long long>(s.inflight));
        s.inflight = -1;
        s.deadline = 0.0;
        s.consecutiveFailures = 0;
        ++stats_.computed;
        finish(r.index, std::move(r));
    } catch (const sim::FatalError &) {
        // Undecodable or out-of-protocol message: treat like a crash
        // so the in-flight request is requeued, not lost.
        onDeath(si, "protocol error");
    }
}

void
Coordinator::dispatch()
{
    for (std::size_t si = 0; si < slots_.size(); ++si) {
        Slot &s = slots_[si];
        if (!s.running() || s.inflight >= 0 || firstError_)
            continue;
        if (pending_.empty())
            return;
        std::size_t idx = pending_.front();
        pending_.pop_front();
        s.inflight = static_cast<std::int64_t>(idx);
        s.deadline = opt_.requestTimeoutSec > 0
            ? monoSeconds() + opt_.requestTimeoutSec
            : 0.0;
        JsonObject o;
        o.add("type", "run")
            .add("index", static_cast<std::int64_t>(idx));
        if (!writeAll(s.toFd, o.str() + "\n"))
            onDeath(si, "command write failed");
    }
}

void
Coordinator::windDown()
{
    for (Slot &s : slots_) {
        if (!s.running())
            continue;
        JsonObject o;
        o.add("type", "quit");
        writeAll(s.toFd, o.str() + "\n"); // best effort
        ::close(s.toFd);
        int status = 0;
        ::waitpid(s.pid, &status, 0);
        ::close(s.fromFd);
        s.pid = -1;
        s.toFd = s.fromFd = -1;
    }
}

void
Coordinator::checkStaleEntries()
{
    if (!cache_)
        return;
    std::set<std::string> live(keys_.begin(), keys_.end());
    std::vector<std::string> stale = cache_->staleEntries(live);
    stats_.staleEntries = stale.size();
    if (stale.empty())
        return;
    std::fprintf(stderr,
                 "[exec] cache-dir '%s': %zu stale entries "
                 "(fingerprints match no request of this sweep)\n",
                 cache_->dir().c_str(), stale.size());
    for (std::size_t i = 0; i < stale.size() && i < 5; ++i)
        std::fprintf(stderr, "[exec]   stale: %s\n", stale[i].c_str());
    if (opt_.strictCache) {
        sim::fatal("cache-dir '%s' holds %zu stale entries "
                   "(GPUMP_EXEC_CACHE_STRICT=1)",
                   cache_->dir().c_str(), stale.size());
    }
}

std::vector<RunResult>
Coordinator::run(ExecStats *stats)
{
    const std::size_t total = requests_.size();
    stats_.total = total;

    // Resume: serve every request the cache already holds.  Keys are
    // computed up front — they also drive stale-entry detection.
    if (!opt_.cacheDir.empty()) {
        cache_ = std::make_unique<ResultCache>(opt_.cacheDir);
        keys_.reserve(total);
        for (const RunRequest &req : requests_)
            keys_.push_back(requestKey(runner_.baseConfig(), req));
        for (std::size_t i = 0; i < total; ++i) {
            RunResult r;
            if (cache_->lookup(keys_[i], r))
                accept(i, std::move(r));
        }
        stats_.cacheHits = completed_;
        std::fprintf(stderr,
                     "[exec] %zu/%zu results loaded from cache\n",
                     completed_, total);
    }

    for (std::size_t i = 0; i < total; ++i) {
        if (!have_[i])
            pending_.push_back(i);
    }

    // A one-job batch forks no worker: the loop below runs it here.
    int want = opt_.workers > 0  ? opt_.workers
        : runner_.jobs() > 1     ? runner_.jobs()
                                 : 0;
    std::size_t nworkers =
        std::min(static_cast<std::size_t>(want), pending_.size());
    slots_.resize(nworkers);
    for (std::size_t si = 0; si < nworkers; ++si)
        spawn(si, false);

    while (completed_ < total) {
        if (interruptRequested()) {
            int sig = interruptSignal();
            killAll();
            throw InterruptedError(
                sim::strformat(
                    "sweep interrupted by signal %d after %zu/%zu "
                    "requests%s",
                    sig, completed_, total,
                    cache_ ? " (completed results are cached; rerun "
                             "with the same --cache-dir to resume)"
                           : ""),
                sig);
        }
        if (firstError_) {
            if (!anyInflight())
                break;
        } else if (!workersLeft()) {
            // The coordinator runs the batch itself, one request per
            // pass, so the interrupt check above runs between
            // requests.
            GPUMP_ASSERT(!pending_.empty(),
                         "exec: %zu requests neither done nor queued",
                         total - completed_);
            std::size_t idx = pending_.front();
            pending_.pop_front();
            runLocal(idx);
            continue;
        }

        double now = monoSeconds();
        for (std::size_t si = 0; si < slots_.size(); ++si) {
            Slot &s = slots_[si];
            if (!s.running() && !s.abandoned && !firstError_ &&
                !pending_.empty() && now >= s.respawnAt)
                spawn(si, true);
        }

        dispatch();

        // Fault-injection hook: SIGKILL a busy worker once the n-th
        // computed result has landed, exercising requeue + respawn.
        if (opt_.testKillAfterResults >= 0 && !killHookFired_ &&
            stats_.computed >=
                static_cast<std::size_t>(opt_.testKillAfterResults)) {
            for (Slot &s : slots_) {
                if (s.running() && s.inflight >= 0) {
                    std::fprintf(stderr,
                                 "[exec] test hook: SIGKILLing worker "
                                 "pid %ld\n",
                                 static_cast<long>(s.pid));
                    ::kill(s.pid, SIGKILL);
                    killHookFired_ = true;
                    break;
                }
            }
        }

        // Poll timeout: the nearest of watchdog deadlines and respawn
        // cooldowns, capped so interrupts stay responsive.
        double wait = 0.2;
        for (const Slot &s : slots_) {
            if (s.running() && s.inflight >= 0 && s.deadline > 0.0)
                wait = std::min(wait, s.deadline - now);
            if (!s.running() && !s.abandoned && !pending_.empty())
                wait = std::min(wait, s.respawnAt - now);
        }
        int timeoutMs =
            std::max(0, static_cast<int>(wait * 1000.0) + 1);

        std::vector<struct pollfd> fds;
        std::vector<std::size_t> fdSlot;
        for (std::size_t si = 0; si < slots_.size(); ++si) {
            if (!slots_[si].running())
                continue;
            fds.push_back({slots_[si].fromFd, POLLIN, 0});
            fdSlot.push_back(si);
        }
        int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                        static_cast<nfds_t>(fds.size()), timeoutMs);
        if (rc < 0 && errno != EINTR)
            sim::fatal("exec: poll() failed: %s",
                       std::strerror(errno)); // NOLINT(concurrency-mt-unsafe)

        for (std::size_t f = 0; f < fds.size(); ++f) {
            if (fds[f].revents == 0)
                continue;
            std::size_t si = fdSlot[f];
            Slot &s = slots_[si];
            if (!s.running())
                continue; // a protocol error above already reaped it
            char chunk[65536];
            ssize_t n = ::read(s.fromFd, chunk, sizeof chunk);
            if (n > 0) {
                s.rxBuf.append(chunk, static_cast<std::size_t>(n));
                std::size_t nl;
                while (s.running() &&
                       (nl = s.rxBuf.find('\n')) !=
                           std::string::npos) {
                    std::string line = s.rxBuf.substr(0, nl);
                    s.rxBuf.erase(0, nl + 1);
                    handleLine(si, line);
                }
            } else if (n == 0) {
                onDeath(si, "exited");
            } else if (errno != EINTR && errno != EAGAIN) {
                onDeath(si, "read error");
            }
        }

        if (opt_.requestTimeoutSec > 0) {
            now = monoSeconds();
            for (std::size_t si = 0; si < slots_.size(); ++si) {
                Slot &s = slots_[si];
                if (s.running() && s.inflight >= 0 &&
                    s.deadline > 0.0 && now > s.deadline) {
                    ++stats_.timeouts;
                    std::fprintf(
                        stderr,
                        "[exec] worker %zu exceeded the %.3fs request "
                        "timeout; killing it\n",
                        si, opt_.requestTimeoutSec);
                    onDeath(si, "request timeout");
                }
            }
        }
    }

    windDown();
    if (firstError_)
        std::rethrow_exception(firstError_);

    checkStaleEntries();
    // A one-job batch without a cache has nothing to report.
    if (!slots_.empty() || cache_) {
        std::fprintf(stderr,
                     "[exec] %zu requests: %zu cached, %zu computed on "
                     "%zu workers, %zu requeued (%zu timeouts), %zu "
                     "respawns, %zu in-process\n",
                     total, stats_.cacheHits, stats_.computed,
                     slots_.size(), stats_.requeues, stats_.timeouts,
                     stats_.respawns, stats_.inProcess);
    }
    if (stats)
        *stats = stats_;
    return std::move(results_);
}

} // namespace

std::vector<RunResult>
runBatch(Runner &runner, const std::vector<RunRequest> &requests,
         const ExecOptions &options, ExecStats *stats)
{
    ExecOptions opt = options;
    opt.applyTestEnv();
    if (requests.empty()) {
        if (stats)
            *stats = ExecStats();
        return {};
    }
    Coordinator coordinator(runner, requests, opt);
    return coordinator.run(stats);
}

} // namespace exec
} // namespace harness
} // namespace gpump
