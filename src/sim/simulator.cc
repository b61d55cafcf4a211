#include "sim/simulator.hh"

#include <span>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "cpu/inorder.hh"
#include "prefetch/composite.hh"
#include "sim/snapshot.hh"

namespace cbws
{

namespace
{

/** Bridges a Prefetcher's requests into the hierarchy. */
class HierarchySink : public PrefetchSink
{
  public:
    explicit HierarchySink(Hierarchy &mem, unsigned core = 0)
        : mem_(mem), core_(core)
    {
    }

    void
    issuePrefetch(LineAddr line, PfSource src) override
    {
        mem_.enqueuePrefetch(line, src, core_);
    }

    bool
    isCached(LineAddr line) const override
    {
        return mem_.isCachedOrInFlightL2(line);
    }

  private:
    Hierarchy &mem_;
    unsigned core_;
};

/** The CBWS component of a prefetcher, if it has one. */
CbwsPrefetcher *
cbwsComponent(Prefetcher *prefetcher)
{
    if (auto *p = dynamic_cast<CbwsPrefetcher *>(prefetcher))
        return p;
    if (auto *c = dynamic_cast<CbwsSmsPrefetcher *>(prefetcher))
        return &c->cbws();
    return nullptr;
}

/**
 * Commit-hook class mask for the standard prefetcher-training hook:
 * it only acts on memory retires and block markers, so everything
 * else can skip the std::function dispatch. (A snapshot probe samples
 * *every* commit, so its presence forces the full mask.)
 */
constexpr std::uint32_t TrainingCommitMask =
    OooCore::classBit(InstClass::Load) |
    OooCore::classBit(InstClass::Store) |
    OooCore::classBit(InstClass::BlockBegin) |
    OooCore::classBit(InstClass::BlockEnd);

/** The prefetcher's view of one memory access and its outcome. */
PrefetchContext
makeContext(const TraceRecord &rec, const AccessOutcome &out)
{
    PrefetchContext ctx;
    ctx.pc = rec.pc;
    ctx.addr = rec.effAddr;
    ctx.line = rec.line();
    ctx.isWrite = rec.cls == InstClass::Store;
    ctx.l1Hit = out.l1Hit;
    ctx.l2Miss = out.cls == DemandClass::Shorter ||
                 out.cls == DemandClass::NonTimely ||
                 out.cls == DemandClass::Missing;
    return ctx;
}

/** Snapshot gauges over @p cbws's table (empty when it is null). */
SnapshotWriter::CbwsGauges
cbwsGauges(const CbwsPrefetcher *cbws)
{
    SnapshotWriter::CbwsGauges gauges;
    if (!cbws)
        return gauges;
    gauges.occupancy = [cbws] {
        return static_cast<std::uint64_t>(cbws->table().occupancy());
    };
    gauges.capacity = [cbws] {
        return static_cast<std::uint64_t>(cbws->table().capacity());
    };
    gauges.tableHits = [cbws] { return cbws->schemeStats().tableHits; };
    gauges.tableMisses = [cbws] {
        return cbws->schemeStats().tableMisses;
    };
    return gauges;
}

/**
 * The one simulation driver: one core per trace, all sharing the L2
 * + DRAM backend of one Hierarchy built from @p config as given, each
 * with a private prefetcher instance. N=1 is the paper's single-core
 * system and reports no per-core slices; N>1 names the result and its
 * slices from @p names.
 */
SimResult
runSystem(std::span<const Trace *const> traces,
          std::span<const std::string> names, const SystemConfig &config,
          std::uint64_t max_insts, const SimProbes &probes,
          std::uint64_t warmup_insts)
{
    const unsigned n = static_cast<unsigned>(traces.size());
    fatal_if(n > 1 && config.coreModel == CoreModel::InOrder,
             "simulateMulti: multi-core requires the out-of-order "
             "core model");

    Hierarchy mem(config.mem);
    if (probes.trace)
        mem.setTraceSink(probes.trace);

    // Private prefetcher instance and core-tagged sink per core.
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    std::vector<std::unique_ptr<HierarchySink>> sinks;
    for (unsigned c = 0; c < n; ++c) {
        prefetchers.push_back(makePrefetcher(config));
        sinks.push_back(std::make_unique<HierarchySink>(mem, c));
    }

    // Observability probes attach to core 0's prefetcher (snapshots
    // report whole-hierarchy counters either way).
    CbwsPrefetcher *cbws0 = cbwsComponent(prefetchers[0].get());
    if (probes.differentials && cbws0)
        cbws0->setDifferentialProbe(probes.differentials);
    if (probes.snapshot) {
        if (n > 1)
            probes.snapshot->setCores(n);
        probes.snapshot->begin(prefetchers[0]->name(), mem);
        probes.snapshot->setCbwsGauges(cbwsGauges(cbws0));
    }

    // The shared hierarchy resets its statistics when the *last* core
    // crosses its warmup boundary (per-core windows are subtracted
    // individually by each core's finish()).
    unsigned warmups_pending = warmup_insts > 0 ? n : 0;
    std::vector<bool> warmup_crossed(n, false);
    auto cross_warmup = [&](unsigned c, Cycle now) {
        if (warmups_pending == 0 || warmup_crossed[c])
            return;
        warmup_crossed[c] = true;
        if (--warmups_pending == 0) {
            mem.resetStats();
            if (probes.snapshot)
                probes.snapshot->onWarmupBoundary(now);
        }
    };

    std::vector<OooCore::CommitHook> on_commit;
    std::vector<OooCore::AccessHook> on_access;
    std::vector<std::function<void(Cycle)>> on_warmup;
    for (unsigned c = 0; c < n; ++c) {
        Prefetcher *pf = prefetchers[c].get();
        PrefetchSink *sink = sinks[c].get();
        SnapshotWriter *snapshot = c == 0 ? probes.snapshot : nullptr;
        on_commit.push_back([pf, sink, snapshot](
                                const TraceRecord &rec,
                                const AccessOutcome &out, Cycle now) {
            if (snapshot)
                snapshot->onCommit(now);
            // The scope sits inside the dispatch so commits that
            // never reach the prefetcher (plain ALU/branch retires,
            // i.e. most of the stream) pay nothing while profiling.
            switch (rec.cls) {
              case InstClass::Load:
              case InstClass::Store: {
                PROF_SCOPE_SAMPLED(prof::Phase::PfObserve, 15);
                pf->observe(PrefetchEvent{PfStage::Commit,
                                          makeContext(rec, out)},
                            *sink);
                break;
              }
              case InstClass::BlockBegin: {
                PROF_SCOPE(prof::Phase::PfObserve);
                pf->blockBegin(rec.blockId, *sink);
                break;
              }
              case InstClass::BlockEnd: {
                PROF_SCOPE(prof::Phase::PfObserve);
                pf->blockEnd(rec.blockId, *sink);
                break;
              }
              default:
                break;
            }
        });
        on_access.push_back([pf, sink](const TraceRecord &rec,
                                       const AccessOutcome &out,
                                       Cycle) {
            PROF_SCOPE_SAMPLED(prof::Phase::PfObserve, 15);
            pf->observe(
                PrefetchEvent{PfStage::Access, makeContext(rec, out)},
                *sink);
        });
        on_warmup.push_back(
            [&cross_warmup, c](Cycle now) { cross_warmup(c, now); });
    }

    std::vector<CoreStats> core_stats(n);
    if (config.coreModel == CoreModel::InOrder) {
        InOrderCore inorder(config.core, mem);
        inorder.setTraceSink(probes.trace);
        core_stats[0] = inorder.run(*traces[0], max_insts, on_commit[0],
                                    on_access[0], warmup_insts,
                                    on_warmup[0]);
    } else {
        std::vector<OooCore> cores;
        cores.reserve(n);
        for (unsigned c = 0; c < n; ++c) {
            OooCore &core = cores.emplace_back(config.core, mem, c);
            core.setTraceSink(probes.trace);
            core.setCommitHookMask(c == 0 && probes.snapshot
                                       ? ~std::uint32_t(0)
                                       : TrainingCommitMask);
            core.begin(*traces[c], max_insts, on_commit[c], on_access[c],
                       warmup_insts, on_warmup[c]);
        }
        // A core whose trace ends before its warmup boundary still
        // releases the shared reset for the cores still running. A
        // lone core keeps the whole run's statistics instead.
        std::function<void(unsigned, Cycle)> on_done;
        if (n > 1)
            on_done = cross_warmup;
        OooCore::runLockstep(mem, cores, on_done);
        for (unsigned c = 0; c < n; ++c)
            core_stats[c] = cores[c].finish();
    }
    mem.finalize();

    SimResult result;
    result.cores = n;
    result.prefetcher = prefetchers[0]->name();
    result.dramBackend = mem.dram().name();
    result.mem = mem.stats();
    result.prefetcherStorageBits = prefetchers[0]->storageBits();
    for (unsigned c = 0; c < n; ++c) {
        result.core.addCore(core_stats[c]);
        if (n == 1)
            continue;
        CoreSliceResult &slice = result.perCore.emplace_back();
        slice.workload = names[c];
        slice.core = core_stats[c];
        if (c < result.mem.perCore.size())
            slice.mem = result.mem.perCore[c];
        result.workload += (c == 0 ? "" : "+") + names[c];
    }
    if (probes.schemeMetrics) {
        for (unsigned c = 0; c < n; ++c) {
            prefetchers[c]->exportMetrics(
                *probes.schemeMetrics,
                n == 1 ? std::string("pf.scheme")
                       : "core" + std::to_string(c) + ".pf.scheme");
        }
    }
    if (probes.snapshot)
        probes.snapshot->finalize(result);
    return result;
}

} // anonymous namespace

SimResult
simulate(const Trace &trace, const SystemConfig &config,
         std::uint64_t max_insts, const SimProbes &probes,
         std::uint64_t warmup_insts)
{
    const Trace *const one = &trace;
    return runSystem({&one, 1}, {}, config, max_insts, probes,
                     warmup_insts);
}

SimResult
simulateMulti(const std::vector<const Trace *> &traces,
              const std::vector<std::string> &workload_names,
              const SystemConfig &config, std::uint64_t max_insts,
              const SimProbes &probes, std::uint64_t warmup_insts)
{
    fatal_if(traces.empty(), "simulateMulti: no traces");
    fatal_if(workload_names.size() != traces.size(),
             "simulateMulti: %zu traces but %zu workload names",
             traces.size(), workload_names.size());

    SystemConfig cfg = config;
    cfg.mem.numCores = static_cast<unsigned>(traces.size());
    SimResult result = runSystem(traces, workload_names, cfg, max_insts,
                                 probes, warmup_insts);
    if (traces.size() == 1)
        result.workload = workload_names[0];
    return result;
}

SimResult
simulateWorkload(const Workload &workload, const SystemConfig &config,
                 const WorkloadParams &params, const SimProbes &probes,
                 std::uint64_t warmup_insts)
{
    Trace trace;
    trace.reserve(params.maxInstructions + 512);
    {
        PROF_SCOPE(prof::Phase::TraceSynthesis);
        workload.generate(trace, params);
    }
    SimResult result = simulate(trace, config, params.maxInstructions,
                                probes, warmup_insts);
    result.workload = workload.name();
    return result;
}

} // namespace cbws
