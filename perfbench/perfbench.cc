/**
 * @file
 * Repository benchmark harness. run.py builds this file against the
 * simulator libraries and drives it; README.md beside it records why
 * each workload exists and which per-layer metric should move which
 * end-to-end metric.
 *
 *   cbws-perfbench run   --workload W --seed N --seconds S --work DIR
 *   cbws-perfbench trace --workload W --seed N --work DIR
 *   cbws-perfbench selftest
 *
 * `run` measures the end-to-end metrics with no tracing: it primes a
 * fresh trace cache several times (set-up), then runs the workload's
 * matrix through runMatrix until the time is up. `trace` is the
 * separate traced run: it times calls into each layer's public
 * functions from outside, keeps every span in memory and writes them
 * to DIR/spans.json at the end. Both print one JSON object on stdout.
 *
 * Every cell passes a validity gate or is counted as failed: its
 * committed instructions must equal the post-warmup budget, and every
 * repeated or traced simulation of it must agree field by field.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/version.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

/**
 * One benchmark workload: a closed-loop batch of one caller running
 * one matrix. The budgets size one matrix at a few host seconds on a
 * 4-CPU x86 box, so a run repeats it several times and reports the
 * median.
 */
struct Spec
{
    std::string name;
    std::function<std::vector<WorkloadPtr>()> rows;
    std::function<std::vector<std::string>()> schemes;
    unsigned cores = 1;
    unsigned jobs = 1;
    std::uint64_t insts = 0;
};

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<Spec>
specs()
{
    return {
        // Memory-bound (aggregate No-Prefetch IPC ~0.06): host time
        // goes into stalled cycles, the Hierarchy/MSHR/DRAM path and
        // skip-ahead. Carries the paper's headline (fidelity_gap).
        {"paper-mi", memoryIntensiveWorkloads, allSchemeNames, 1, 1,
         40000},
        // High-IPC, L1-resident: the core pipeline and commit-stage
        // training dominate. The only workload on the thread pool and
        // the one with the largest live traces.
        {"compute-par", lowMpkiWorkloads, allSchemeNames, 1,
         std::min(4u, hostThreads()), 200000},
        // Shared-L2 contention, store-heavy joins and the heavy zoo
        // schemes (Pythia, Pangloss) on the multi-core driver.
        {"dbms-4core", dbmsWorkloads, zooSchemeNames, 4, 1, 20000},
    };
}

const Spec *
findSpec(const std::string &name)
{
    static const std::vector<Spec> all = specs();
    for (const auto &s : all)
        if (s.name == name)
            return &s;
    return nullptr;
}

SystemConfig
systemFor(const Spec &spec)
{
    SystemConfig config; // Table II
    config.mem.numCores = spec.cores;
    return config;
}

// ---------------------------------------------------------------
// Validity gate
// ---------------------------------------------------------------

bool
sameCore(const CoreStats &a, const CoreStats &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.memInstructions == b.memInstructions &&
           a.branches == b.branches &&
           a.branchMispredicts == b.branchMispredicts &&
           a.loopCycles == b.loopCycles &&
           a.robFullStalls == b.robFullStalls &&
           a.lsqFullStalls == b.lsqFullStalls;
}

/** Field-by-field SimResult equality (perCore compared by value). */
bool
sameResult(const SimResult &a, const SimResult &b)
{
    if (a.workload != b.workload || a.prefetcher != b.prefetcher ||
        a.dramBackend != b.dramBackend || a.cores != b.cores ||
        a.prefetcherStorageBits != b.prefetcherStorageBits ||
        !sameCore(a.core, b.core) || a.mem != b.mem ||
        a.perCore.size() != b.perCore.size())
        return false;
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
        const CoreSliceResult &x = a.perCore[c];
        const CoreSliceResult &y = b.perCore[c];
        if (x.workload != y.workload || !sameCore(x.core, y.core) ||
            !(x.mem == y.mem))
            return false;
    }
    return true;
}

/** A complete cell commits the budget minus runMatrix's quarter-budget
 *  warmup on every core; a cycle-limit overrun commits fewer. */
bool
complete(const SimResult &res, std::uint64_t budget, unsigned cores)
{
    return res.core.instructions == (budget - budget / 4) * cores;
}

/**
 * Per-cell verdicts of one run. A cell is failed once any check on
 * it fails; nothing is dropped, so failed/attempted is exact.
 */
class CellGate
{
  public:
    /** Record one check of the cell named @p key. */
    void
    note(const std::string &key, bool ok)
    {
        failed_[key] = failed_[key] || !ok;
    }

    /**
     * Check every cell of @p m for completeness and, when @p ref is
     * given, for field-by-field agreement with the same cell there.
     * @p tag separates matrices of different seeds or budgets.
     */
    void
    check(const ExperimentMatrix &m, std::uint64_t budget,
          unsigned cores, const ExperimentMatrix *ref,
          const std::string &tag = "")
    {
        for (std::size_t r = 0; r < m.rows.size(); ++r)
            for (std::size_t k = 0; k < m.schemes.size(); ++k) {
                const SimResult &res = m.rows[r].byPrefetcher[k];
                const std::string key =
                    tag + m.rows[r].workload + "/" + m.schemes[k];
                note(key, complete(res, budget, cores));
                if (ref)
                    note(key, sameResult(res, ref->rows[r].byPrefetcher[k]));
            }
    }

    std::uint64_t attempted() const { return failed_.size(); }

    std::uint64_t
    failed() const
    {
        std::uint64_t n = 0;
        for (const auto &[key, bad] : failed_)
            n += bad ? 1 : 0;
        return n;
    }

    double
    failFraction() const
    {
        return attempted() ? static_cast<double>(failed()) /
                                 static_cast<double>(attempted())
                           : 0.0;
    }

  private:
    std::map<std::string, bool> failed_;
};

// ---------------------------------------------------------------
// Metric names and values
// ---------------------------------------------------------------

/** Scheme display name -> metric-name component: lower case, every
 *  run of other characters one '-' ("GHB-G/DC" -> "ghb-g-dc"). */
std::string
schemeMetricName(const std::string &scheme)
{
    std::string out;
    bool gap = false;
    for (char c : scheme) {
        const bool alnum = (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9');
        if (!alnum) {
            gap = true;
            continue;
        }
        if (gap && !out.empty())
            out += '-';
        gap = false;
        out += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a')
                                       : c;
    }
    return out;
}

/** A metric name BENCHMARK.json accepts: up to 64 of [A-Za-z0-9_.-],
 *  starting with a letter or digit. */
bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto ok = [](char c, bool first) {
        const bool alnum = (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9');
        return alnum || (!first && (c == '_' || c == '.' || c == '-'));
    };
    for (std::size_t i = 0; i < name.size(); ++i)
        if (!ok(name[i], i == 0))
            return false;
    return true;
}

/** Mapped names of @p schemes; empty when any is invalid inside the
 *  longest per-scheme metric or two schemes collide. */
std::vector<std::string>
schemeMetricNames(const std::vector<std::string> &schemes)
{
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const auto &s : schemes) {
        const std::string m = schemeMetricName(s);
        if (m.empty() ||
            !validMetricName("prefetch." + m + ".issued_per_kevent") ||
            !seen.insert(m).second)
            return {};
        out.push_back(m);
    }
    return out;
}

struct Metric
{
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile @p q of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Peak resident set of this process, MB. */
double
peakRssMb()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * The paper's headline check over fidelityCells(): |geomean over the
 * rows of IPC(CBWS+SMS)/IPC(SMS) - 1.31| / 1.31; -1 when a cell has
 * no IPC.
 */
constexpr double PaperMiSpeedup = 1.31;

double
fidelityGap(const ExperimentMatrix &m)
{
    double log_sum = 0;
    for (std::size_t r = 0; r < m.rows.size(); ++r) {
        const double base = m.result(r, "SMS").ipc();
        const double cbws = m.result(r, "CBWS+SMS").ipc();
        if (base <= 0 || cbws <= 0)
            return -1;
        log_sum += std::log(cbws / base);
    }
    const double speedup =
        std::exp(log_sum / static_cast<double>(m.rows.size()));
    return std::fabs(speedup - PaperMiSpeedup) / PaperMiSpeedup;
}

std::uint64_t
committed(const ExperimentMatrix &m)
{
    std::uint64_t total = 0;
    for (const auto &row : m.rows)
        for (const auto &res : row.byPrefetcher)
            total += res.core.instructions;
    return total;
}

// ---------------------------------------------------------------
// Spans
// ---------------------------------------------------------------

/** In-memory span log of the traced run, written out at the end. */
class SpanLog
{
  public:
    explicit SpanLog(std::string workload)
        : workload_(std::move(workload)), origin_(Clock::now())
    {}

    /** Open a span under the innermost open one. */
    void
    open(const std::string &name, const std::string &subject = "")
    {
        Span s;
        s.name = name;
        s.subject = subject;
        s.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
        s.start = now();
        spans_.push_back(s);
        stack_.push_back(spans_.size() - 1);
    }

    /** Close the innermost span; returns its duration in seconds. */
    double
    close()
    {
        Span &s = spans_[stack_.back()];
        stack_.pop_back();
        s.end = now();
        return s.end - s.start;
    }

    /** Time @p fn as a span; returns its duration in seconds. */
    template <typename Fn>
    double
    time(const std::string &name, const std::string &subject, Fn &&fn)
    {
        open(name, subject);
        fn();
        return close();
    }

    /** Durations (s) of the spans named @p name, in opening order. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (s.name == name)
                out.push_back(s.end - s.start);
        return out;
    }

    bool
    write(const std::string &path) const
    {
        JsonWriter w;
        w.beginObject();
        w.field("workload", workload_);
        w.key("spans");
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.field("id", static_cast<std::uint64_t>(i));
            w.key("parent");
            if (s.parent < 0)
                w.value(std::string("none"));
            else
                w.value(static_cast<std::uint64_t>(s.parent));
            w.field("name", s.name);
            w.field("workload", workload_);
            w.field("subject", s.subject);
            w.field("start_us", s.start * 1e6);
            w.field("end_us", s.end * 1e6);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::ofstream out(path);
        out << w.str() << "\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        std::string subject;
        long parent = -1;
        double start = 0;
        double end = 0;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    std::string workload_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

// ---------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------

TraceCache::Key
keyFor(const Workload &w, std::uint64_t insts, std::uint64_t seed)
{
    return TraceCache::Key{w.name(), insts, seed};
}

/** Synthesise every trace into a fresh, empty cache at @p dir. With
 *  @p spans, each generate and store call is a span. Returns false
 *  when a store fails. */
bool
primeCache(const std::vector<WorkloadPtr> &rows, std::uint64_t insts,
           std::uint64_t seed, const std::string &dir,
           SpanLog *spans = nullptr)
{
    std::filesystem::remove_all(dir);
    TraceCache cache(dir);
    WorkloadParams params;
    params.maxInstructions = insts;
    params.seed = seed;
    bool ok = true;
    for (const auto &w : rows) {
        Trace trace;
        auto generate = [&] {
            trace.reserve(insts + 512);
            w->generate(trace, params);
        };
        auto store = [&] {
            ok = cache.store(keyFor(*w, insts, seed), trace).ok() && ok;
        };
        if (spans) {
            spans->open("setup.trace", w->name());
            spans->time("workloads.generate", w->name(), generate);
            spans->time("trace.cache_store", w->name(), store);
            spans->close();
        } else {
            generate();
            store();
        }
    }
    return ok;
}

// ---------------------------------------------------------------
// Result output
// ---------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto value =
                line.find_first_not_of(" \t", line.find(':') + 1);
            if (line.find(':') != std::string::npos &&
                value != std::string::npos)
                return line.substr(value);
        }
    return "unknown";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    JsonWriter w;
    w.value(s);
    return w.str();
}

/** Raw per-repeat values behind a reported median, by metric. */
using Raw = std::map<std::string, std::vector<double>>;

/** Print the run's single JSON result line. */
void
emit(const std::string &workload, std::uint64_t seed, bool correct,
     std::uint64_t attempted, std::uint64_t failed,
     const Metrics &metrics, const Raw &raw,
     const std::vector<std::string> &notes)
{
    JsonWriter prov;
    writeProvenance(prov);
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        out << sep << quoted(name) << ": {\"value\": " << number(m.value)
            << ", \"unit\": " << quoted(m.unit) << "}";
        sep = ", ";
    }
    out << "}, \"raw\": {";
    sep = "";
    for (const auto &[name, values] : raw) {
        out << sep << quoted(name) << ": [";
        for (std::size_t i = 0; i < values.size(); ++i)
            out << (i ? ", " : "") << number(values[i]);
        out << "]";
        sep = ", ";
    }
    out << "}, \"workload\": " << quoted(workload) << ", \"seed\": " << seed
        << ", \"provenance\": " << prov.str()
        << ", \"build_type\": " << quoted(buildInfo().buildType)
        << ", \"nproc\": " << hostThreads()
        << ", \"cpu_model\": " << quoted(cpuModel()) << ", \"notes\": [";
    for (std::size_t i = 0; i < notes.size(); ++i)
        out << (i ? ", " : "") << quoted(notes[i]);
    out << "]}";
    std::printf("%s\n", out.str().c_str());
}

/** Samples of per-trace or per-row metrics; each reports its median
 *  across the workload's traces. */
class Samples
{
  public:
    void
    add(const std::string &name, const char *unit, double v)
    {
        auto &e = samples_[name];
        e.first = unit;
        e.second.push_back(v);
    }

    void
    into(Metrics &metrics) const
    {
        for (const auto &[name, e] : samples_)
            metrics[name] = {median(e.second), e.first};
    }

  private:
    std::map<std::string, std::pair<std::string, std::vector<double>>>
        samples_;
};

/** @p num / @p den, or 0 for an empty denominator. */
double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** The one matrix cell runMatrix would simulate for @p config. */
SimResult
simulateCell(const Trace &trace, const std::string &row,
             const SystemConfig &config, std::uint64_t budget)
{
    const unsigned cores = config.mem.numCores;
    SimResult res =
        cores > 1
            ? simulateMulti(std::vector<const Trace *>(cores, &trace),
                            std::vector<std::string>(cores, row), config,
                            budget, SimProbes(), budget / 4)
            : simulate(trace, config, budget, SimProbes(), budget / 4);
    res.workload = row;
    return res;
}

/** Budget of the fidelity cells: the figure benches' default. Across
 *  seeds the gap varies ~2% here, against ~10% at paper-mi's 40k. */
constexpr std::uint64_t FidelityInsts = 120000;

/**
 * The cells fidelity_gap reads: the paper's memory-intensive kernels
 * under SMS and CBWS+SMS on the single-core Table II system. Every
 * workload runs them after its timed region, so each reports the
 * model's error at its seed.
 */
ExperimentMatrix
fidelityCells(std::uint64_t seed)
{
    MatrixOptions opts;
    opts.jobs = 1;
    return runMatrix(memoryIntensiveWorkloads(),
                     std::vector<std::string>{"SMS", "CBWS+SMS"},
                     SystemConfig(), FidelityInsts, seed, opts);
}

/** Seed of the held-out fidelity check; the repo's benches and goldens
 *  all use seed 42. */
constexpr std::uint64_t HeldOutSeed = 7;

// ---------------------------------------------------------------
// `run`: end-to-end metrics, no tracing
// ---------------------------------------------------------------

/** Set-up repeats at least this often and for at least this long;
 *  setup_s is the median. */
constexpr std::size_t SetupMinReps = 9;
constexpr double SetupMinSeconds = 2.0;

int
runEndToEnd(const Spec &spec, std::uint64_t seed, double seconds,
            const std::string &work)
{
    const auto rows = spec.rows();
    const auto schemes = spec.schemes();
    const SystemConfig config = systemFor(spec);
    const std::string cache_dir = work + "/cache";
    std::vector<std::string> notes;

    std::vector<double> setup_s;
    bool setup_ok = true;
    const auto setup_begin = Clock::now();
    while (setup_s.size() < SetupMinReps ||
           secondsSince(setup_begin) < SetupMinSeconds) {
        const auto t0 = Clock::now();
        setup_ok = primeCache(rows, spec.insts, seed, cache_dir) && setup_ok;
        setup_s.push_back(secondsSince(t0));
    }
    if (!setup_ok)
        notes.push_back("trace cache store failed during set-up");
    // Freed trace buffers go back to the OS after set-up and after
    // every matrix, so peak_rss_mb is one matrix's footprint rather
    // than allocator history across repeats.
    ::malloc_trim(0);

    TraceCache cache(cache_dir);
    MatrixOptions opts;
    opts.jobs = spec.jobs;
    opts.traceCache = &cache;

    // An untimed first matrix warms the page cache and is the
    // reference every timed repeat must reproduce exactly.
    CellGate gate;
    const ExperimentMatrix first =
        runMatrix(rows, schemes, config, spec.insts, seed, opts);
    gate.check(first, spec.insts, spec.cores, nullptr);
    ::malloc_trim(0);

    // Closed loop: one matrix after another until the time is up.
    std::vector<double> ips;
    const auto begin = Clock::now();
    do {
        const auto t0 = Clock::now();
        const ExperimentMatrix m =
            runMatrix(rows, schemes, config, spec.insts, seed, opts);
        ips.push_back(static_cast<double>(committed(m)) /
                      secondsSince(t0));
        gate.check(m, spec.insts, spec.cores, &first);
        ::malloc_trim(0);
    } while (secondsSince(begin) < seconds);
    std::filesystem::remove_all(cache_dir);
    const double peak_rss_mb = peakRssMb(); // before the fidelity cells

    const ExperimentMatrix fid = fidelityCells(seed);
    gate.check(fid, FidelityInsts, 1, nullptr, "fidelity/");
    const double gap = fidelityGap(fid);

    Metrics metrics;
    metrics["sim_ips"] = {median(ips), "inst/s"};
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    metrics["cell_ok_frac"] = {1.0 - gate.failFraction(), "ratio"};
    metrics["fidelity_gap"] = {gap, "ratio"};
    const bool correct = setup_ok && gate.failed() == 0 && gap >= 0;
    emit(spec.name, seed, correct, gate.attempted(), gate.failed(),
         metrics, {{"sim_ips", ips}, {"setup_s", setup_s}}, notes);
    return 0;
}

// ---------------------------------------------------------------
// `trace`: per-layer metrics from outside each layer
// ---------------------------------------------------------------

/** One training call of the prefetch-layer replay. */
struct PfCall
{
    InstClass cls = InstClass::Nop; ///< Load, Store or a block marker
    BlockId block = 0;
    PrefetchContext ctx;
};

struct MemReplay
{
    std::uint64_t accesses = 0;
    std::vector<PfCall> calls;
};

bool
lastLevelMiss(const AccessOutcome &o)
{
    return o.cls == DemandClass::Shorter ||
           o.cls == DemandClass::NonTimely ||
           o.cls == DemandClass::Missing;
}

/**
 * Drive a Hierarchy with the memory stream of the first @p limit
 * records and no core: one record per cycle, an instruction fetch
 * whenever the PC leaves the fetched line, a structural stall retried
 * once the next fill completes. Each access's outcome becomes the training input
 * of the prefetch-layer replay.
 */
MemReplay
replayMemory(const Trace &trace, std::uint64_t limit,
             const HierarchyParams &params)
{
    Hierarchy mem(params);
    MemReplay out;
    const std::size_t n =
        std::min<std::size_t>(trace.size(), static_cast<std::size_t>(limit));
    out.calls.reserve(n);
    Cycle now = 0;
    LineAddr fetched = ~LineAddr(0);
    auto retry = [&](auto access) {
        AccessOutcome o;
        while (!(o = access()).ok)
            now = std::max(now + 1, mem.nextEventCycle());
        ++out.accesses;
        return o;
    };
    for (std::size_t i = 0; i < n; ++i, ++now) {
        const TraceRecord &rec = trace[i];
        if (lineOf(rec.pc) != fetched) {
            fetched = lineOf(rec.pc);
            retry([&] { return mem.fetch(rec.pc, now); });
        }
        PfCall call;
        call.cls = rec.cls;
        switch (rec.cls) {
          case InstClass::Load:
          case InstClass::Store: {
            const bool store = rec.cls == InstClass::Store;
            const AccessOutcome o = retry([&] {
                return store ? mem.store(rec.effAddr, now)
                             : mem.load(rec.effAddr, now);
            });
            call.ctx.pc = rec.pc;
            call.ctx.addr = rec.effAddr;
            call.ctx.line = rec.line();
            call.ctx.isWrite = store;
            call.ctx.l1Hit = o.l1Hit;
            call.ctx.l2Miss = lastLevelMiss(o);
            break;
          }
          case InstClass::BlockBegin:
          case InstClass::BlockEnd:
            call.block = rec.blockId;
            break;
          default:
            continue;
        }
        out.calls.push_back(call);
    }
    return out;
}

/** Prefetch-replay sink: counts requests, reports nothing cached. */
class CountingSink : public PrefetchSink
{
  public:
    void issuePrefetch(LineAddr, PfSource) override { ++issued; }
    bool isCached(LineAddr) const override { return false; }

    std::uint64_t issued = 0;
};

/** Feed @p calls to @p pf (a memory op as its access then its commit
 *  event, a marker as blockBegin/blockEnd); returns the calls made. */
std::uint64_t
replayPrefetcher(Prefetcher &pf, const std::vector<PfCall> &calls,
                 PrefetchSink &sink)
{
    std::uint64_t made = 0;
    for (const PfCall &c : calls) {
        switch (c.cls) {
          case InstClass::BlockBegin:
            pf.blockBegin(c.block, sink);
            ++made;
            break;
          case InstClass::BlockEnd:
            pf.blockEnd(c.block, sink);
            ++made;
            break;
          default:
            pf.observe(PrefetchEvent{PfStage::Access, c.ctx}, sink);
            pf.observe(PrefetchEvent{PfStage::Commit, c.ctx}, sink);
            made += 2;
        }
    }
    return made;
}

int
runTraced(const Spec &spec, std::uint64_t seed, std::uint64_t budget,
          const std::string &work, const std::string &spans_path)
{
    const auto rows = spec.rows();
    const auto schemes = spec.schemes();
    const auto zoo = zooSchemeNames();
    const auto zoo_names = schemeMetricNames(zoo);
    if (zoo_names.empty()) {
        std::fprintf(stderr, "cbws-perfbench: scheme names do not map "
                             "to unique metric names\n");
        return 1;
    }
    const SystemConfig config = systemFor(spec);
    SystemConfig single = config;
    single.mem.numCores = 1;
    const std::string cache_dir = work + "/cache";
    const double ns = 1e9;

    SpanLog spans(spec.name);
    Samples per;
    CellGate gate;
    std::vector<std::string> notes;

    // workloads + trace (store): set-up, one span per call.
    spans.open("setup");
    const bool setup_ok =
        primeCache(rows, budget, seed, cache_dir, &spans);
    spans.close();
    if (!setup_ok)
        notes.push_back("trace cache store failed during set-up");
    const auto generate_s = spans.durations("workloads.generate");
    const auto store_s = spans.durations("trace.cache_store");

    // trace (load, decode): the inputs every later layer replays.
    TraceCache cache(cache_dir);
    std::vector<Trace> traces(rows.size());
    double load_decode_s = 0;
    spans.open("layer.trace");
    for (std::size_t w = 0; w < rows.size(); ++w) {
        const std::string &name = rows[w]->name();
        const TraceCache::Key key = keyFor(*rows[w], budget, seed);
        bool loaded = false;
        const double load_s = spans.time("trace.cache_load", name, [&] {
            loaded = cache.load(key, traces[w]).ok();
        });
        if (!loaded)
            notes.push_back("trace cache load failed: " + name);
        const double decode_s = spans.time(
            "trace.decode", name, [&] { traces[w].ensureDecoded(); });
        load_decode_s += load_s + decode_s;
        const double recs = static_cast<double>(traces[w].size());
        per.add("workloads.generate_ns_per_rec", "ns",
                ratio(generate_s[w] * ns, recs));
        per.add("trace.cache_store_ns_per_rec", "ns",
                ratio(store_s[w] * ns, recs));
        per.add("trace.cache_load_ns_per_rec", "ns",
                ratio(load_s * ns, recs));
        per.add("trace.decode_ns_per_rec", "ns",
                ratio(decode_s * ns, recs));
        std::error_code ec;
        const auto bytes =
            std::filesystem::file_size(cache.pathFor(key), ec);
        per.add("trace.cache_bytes_per_rec", "B/rec",
                ec ? 0.0 : ratio(static_cast<double>(bytes), recs));
    }
    spans.close();

    // sim + base: the untraced matrix (at the workload's jobs, then
    // serially when that differs), then every cell traced on its own.
    MatrixOptions opts;
    opts.jobs = spec.jobs;
    opts.traceCache = &cache;
    ExperimentMatrix matrix;
    const double matrix_s = spans.time("sim.matrix", "", [&] {
        matrix = runMatrix(rows, schemes, config, budget, seed, opts);
    });
    gate.check(matrix, budget, spec.cores, nullptr);
    double serial_s = matrix_s;
    if (spec.jobs > 1) {
        opts.jobs = 1;
        ExperimentMatrix serial;
        serial_s = spans.time("sim.matrix_serial", "", [&] {
            serial = runMatrix(rows, schemes, config, budget, seed, opts);
        });
        gate.check(serial, budget, spec.cores, &matrix);
    }

    std::vector<double> cell_ms;
    double cell_sum_s = 0, cell_max_s = 0;
    spans.open("sim.rows");
    for (std::size_t w = 0; w < rows.size(); ++w) {
        const std::string &row = rows[w]->name();
        spans.open("sim.row", row);
        // cpu: OooCore::run alone on its own single-core hierarchy with
        // no hooks, right before the row's cells, so hook_ns_per_inst
        // pairs it with the No-Prefetch cell under the same host load.
        Hierarchy core_mem(single.mem);
        OooCore core(single.core, core_mem);
        CoreStats st;
        const double run_s = spans.time("cpu.run", row, [&] {
            st = core.run(traces[w], budget, nullptr, nullptr, budget / 4,
                          [&core_mem](Cycle) { core_mem.resetStats(); });
        });
        const double run_ns_per_inst =
            ratio(run_s * ns, static_cast<double>(st.instructions));
        per.add("cpu.run_ns_per_inst", "ns", run_ns_per_inst);
        per.add("cpu.run_ns_per_cycle", "ns",
                ratio(run_s * ns, static_cast<double>(st.cycles)));

        for (std::size_t z = 0; z < zoo.size(); ++z) {
            SystemConfig cfg = config;
            cfg.scheme = zoo[z];
            SimResult res;
            const double s =
                spans.time("sim.cell", row + "/" + zoo[z], [&] {
                    res = simulateCell(traces[w], row, cfg, budget);
                });
            const std::string key = row + "/" + zoo[z];
            gate.note(key, complete(res, budget, spec.cores));
            const auto k = std::find(matrix.schemes.begin(),
                                     matrix.schemes.end(), zoo[z]);
            if (k != matrix.schemes.end()) {
                const std::size_t col = k - matrix.schemes.begin();
                gate.note(key,
                          sameResult(res, matrix.rows[w].byPrefetcher[col]));
                cell_ms.push_back(s * 1e3);
                cell_sum_s += s;
                cell_max_s = std::max(cell_max_s, s);
            }
            const double insts = static_cast<double>(res.core.instructions);
            const std::string &m = zoo_names[z];
            const PrefetchLifecycle life = res.mem.pfLifeTotal();
            per.add("sim." + m + ".cell_ns_per_inst", "ns",
                    ratio(s * ns, insts));
            per.add("prefetch." + m + ".accuracy", "ratio",
                    life.accuracy());
            per.add("prefetch." + m + ".late_frac", "ratio",
                    life.lateFraction());
            if (zoo[z] != "No-Prefetch")
                continue;
            per.add("sim.hook_ns_per_inst", "ns",
                    ratio(s * ns, insts) - run_ns_per_inst);
            per.add("cpu.ipc", "inst/cycle", res.ipc());
            per.add("cpu.rob_full_per_kinst", "count/kinst",
                    ratio(1e3 * static_cast<double>(res.core.robFullStalls),
                          insts));
            per.add("mem.l1d_miss_ratio", "ratio",
                    ratio(static_cast<double>(res.mem.l1dMisses),
                          static_cast<double>(res.mem.l1dAccesses)));
            per.add("mem.llc_mpki", "count/kinst", res.mpki());
            per.add("mem.mshr_stalls_per_kinst", "count/kinst",
                    ratio(1e3 * static_cast<double>(res.mem.mshrStalls),
                          insts));
            per.add("mem.dram_bytes_per_inst", "B/inst",
                    ratio(static_cast<double>(res.mem.dramBytesRead +
                                              res.mem.dramBytesWritten),
                          insts));
        }
        spans.close();
    }
    spans.close();

    // mem: a Hierarchy driven by the trace's memory stream, no core.
    std::vector<std::vector<PfCall>> calls(rows.size());
    spans.open("layer.mem");
    for (std::size_t w = 0; w < rows.size(); ++w) {
        MemReplay r;
        const double s = spans.time("mem.replay", rows[w]->name(), [&] {
            r = replayMemory(traces[w], budget, single.mem);
        });
        per.add("mem.replay_ns_per_access", "ns",
                ratio(s * ns, static_cast<double>(r.accesses)));
        calls[w] = std::move(r.calls);
    }
    spans.close();

    // prefetch: each scheme alone, fed the recorded access stream.
    spans.open("layer.prefetch");
    for (std::size_t z = 0; z < zoo.size(); ++z) {
        SystemConfig cfg = single;
        cfg.scheme = zoo[z];
        for (std::size_t w = 0; w < rows.size(); ++w) {
            auto pf = makePrefetcher(cfg);
            CountingSink sink;
            std::uint64_t made = 0;
            const double s = spans.time(
                "prefetch.observe", zoo[z] + "/" + rows[w]->name(),
                [&] { made = replayPrefetcher(*pf, calls[w], sink); });
            const std::string &m = zoo_names[z];
            per.add("prefetch." + m + ".observe_ns", "ns",
                    ratio(s * ns, static_cast<double>(made)));
            per.add("prefetch." + m + ".issued_per_kevent", "count/kevent",
                    ratio(1e3 * static_cast<double>(sink.issued),
                          static_cast<double>(made)));
        }
    }
    spans.close();

    // Model fidelity at this seed and at the held-out seed.
    spans.open("fidelity");
    ExperimentMatrix fid;
    spans.time("sim.fidelity_cells", "seed",
               [&] { fid = fidelityCells(seed); });
    gate.check(fid, FidelityInsts, 1, nullptr, "fidelity/");
    const double gap = fidelityGap(fid);
    ExperimentMatrix held;
    spans.time("sim.fidelity_cells", "held-out seed",
               [&] { held = fidelityCells(HeldOutSeed); });
    CellGate held_gate;
    held_gate.check(held, FidelityInsts, 1, nullptr);
    spans.close();

    Metrics metrics;
    per.into(metrics);
    const double cells = static_cast<double>(cell_ms.size());
    const double tail_q = std::min(0.9, 1.0 - 10.0 / cells);
    metrics["sim.cells"] = {cells, "count"};
    metrics["sim.cell_p50_ms"] = {median(cell_ms), "ms"};
    metrics["sim.cell_p90_ms"] = {quantile(cell_ms, tail_q), "ms"};
    metrics["sim.cell_tail_quantile"] = {tail_q, "ratio"};
    metrics["pool.efficiency"] = {
        ratio(cell_sum_s, spec.jobs * matrix_s), "ratio"};
    metrics["pool.tail_frac"] = {ratio(cell_max_s, matrix_s), "ratio"};
    // The untraced serial matrix does the trace loads and decodes
    // plus the cells; the traced run timed both sets of calls.
    metrics["trace_overhead_frac"] = {
        ratio(load_decode_s + cell_sum_s, serial_s) - 1.0, "ratio"};
    metrics["cell_fail_frac"] = {gate.failFraction(), "ratio"};
    metrics["fidelity.gap"] = {gap, "ratio"};
    metrics["fidelity.heldout_gap"] = {fidelityGap(held), "ratio"};
    metrics["fidelity.heldout_cell_fail_frac"] = {held_gate.failFraction(),
                                                  "ratio"};

    std::filesystem::remove_all(cache_dir);
    if (!spans.write(spans_path))
        notes.push_back("could not write spans to " + spans_path);
    const bool correct = setup_ok && notes.empty() &&
                         gate.failed() == 0 && held_gate.failed() == 0;
    emit(spec.name, seed, correct,
         gate.attempted() + held_gate.attempted(),
         gate.failed() + held_gate.failed(), metrics, {}, notes);
    return 0;
}

// ---------------------------------------------------------------
// `selftest`: the benchmark's own logic
// ---------------------------------------------------------------

int
selfTest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        std::fprintf(stderr, "%s: %s\n", ok ? "ok" : "FAILED", what);
        failures += ok ? 0 : 1;
    };

    expect(schemeMetricName("CBWS+SMS") == "cbws-sms" &&
               schemeMetricName("GHB-G/DC") == "ghb-g-dc" &&
               schemeMetricName("No-Prefetch") == "no-prefetch",
           "scheme names map into the metric-name alphabet");
    const auto zoo = zooSchemeNames();
    expect(schemeMetricNames(zoo).size() == zoo.size(),
           "every registered scheme maps to a valid, unique name");
    expect(schemeMetricNames({"GHB-G/DC", "ghb g dc"}).empty(),
           "two schemes mapping to one name are rejected");
    expect(schemeMetricNames({"+/+"}).empty(),
           "a scheme mapping to an empty name is rejected");

    // A real two-core cell: both runs agree although their perCore
    // vectors live at different addresses.
    const std::uint64_t budget = 4000;
    const auto dbms = dbmsWorkloads();
    const Workload &wl = *dbms.front();
    Trace trace;
    WorkloadParams params;
    params.maxInstructions = budget;
    wl.generate(trace, params);
    SystemConfig config;
    config.mem.numCores = 2;
    config.scheme = "CBWS+SMS";
    const SimResult a = simulateCell(trace, wl.name(), config, budget);
    const SimResult b = simulateCell(trace, wl.name(), config, budget);
    expect(complete(a, budget, 2) && sameResult(a, b),
           "two runs of one multi-core cell agree field by field");

    SimResult c = b;
    c.perCore[1].core.robFullStalls += 1;
    expect(!sameResult(a, c), "a one-counter CoreStats difference "
                              "inside perCore is detected");
    c = b;
    c.perCore[0].mem.l1dMisses += 1;
    expect(!sameResult(a, c), "a one-counter CoreMemStats difference "
                              "inside perCore is detected");

    // A truncated cell (cycle-limit overrun) is counted as failed.
    ExperimentMatrix m;
    m.schemes = {"CBWS+SMS"};
    m.rows.resize(1);
    m.rows[0].workload = wl.name();
    m.rows[0].byPrefetcher = {b};
    m.rows[0].byPrefetcher[0].core.instructions -= 1;
    CellGate gate;
    gate.check(m, budget, 2, nullptr);
    expect(gate.attempted() == 1 && gate.failed() == 1,
           "a truncated SimResult is counted as failed");

    expect(quantile({1, 2, 3, 4, 5}, 0.5) == 3 && median({4, 1, 2, 3}) == 2.5,
           "quantile and median helpers");
    return failures ? 1 : 0;
}

/** Settings that silently change what or how the program measures;
 *  the benchmark passes jobs, cache and budget explicitly instead. */
const char *const ForbiddenEnv[] = {
    "CBWS_BATCH_DECODE", "CBWS_SKIP_AHEAD", "CBWS_JOBS",
    "CBWS_TRACE_CACHE",  "CBWS_BENCH_INSTS", "CBWS_FAULT",
    "CBWS_PROFILE",
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: cbws-perfbench run --workload W --seed N "
                 "--seconds S --work DIR\n"
                 "       cbws-perfbench trace --workload W --seed N "
                 "--work DIR --spans FILE [--insts N]\n"
                 "       cbws-perfbench selftest\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    for (const char *var : ForbiddenEnv)
        if (std::getenv(var)) {
            std::fprintf(stderr,
                         "cbws-perfbench: refusing to run with %s set\n",
                         var);
            return 2;
        }
    const std::string cmd = argv[1];
    if (cmd == "selftest")
        return selfTest();

    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    const Spec *spec = findSpec(args["--workload"]);
    const std::string work = args["--work"];
    if (!spec || work.empty() || !args.count("--seed"))
        return usage();
    const std::uint64_t seed = std::stoull(args["--seed"]);
    std::filesystem::create_directories(work);
    if (cmd == "run" && args.count("--seconds"))
        return runEndToEnd(*spec, seed, std::stod(args["--seconds"]), work);
    if (cmd == "trace" && !args["--spans"].empty())
        return runTraced(*spec, seed,
                         args.count("--insts") ? std::stoull(args["--insts"])
                                               : spec->insts,
                         work, args["--spans"]);
    return usage();
}
