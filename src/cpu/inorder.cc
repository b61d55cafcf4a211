#include "cpu/inorder.hh"

#include <algorithm>

#include "base/profiler.hh"

namespace cbws
{

InOrderCore::InOrderCore(const CoreParams &params, Hierarchy &mem)
    : params_(params), mem_(mem), bp_(params.branchPred)
{
}

CoreStats
InOrderCore::run(const Trace &trace, std::uint64_t max_insts,
                 const OooCore::CommitHook &on_commit,
                 const OooCore::AccessHook &on_access,
                 std::uint64_t warmup_insts,
                 const std::function<void(Cycle)> &on_warmup)
{
    // Whole replay loop: core-side work lands in Decode, the nested
    // memory-system phases claim their own exclusive time.
    PROF_SCOPE(prof::Phase::Decode);

    CoreStats stats;
    CoreStats warm_snapshot;
    bool warmed = warmup_insts == 0;

    Cycle now = 0;
    Cycle reg_ready[NumArchRegs] = {};
    LineAddr last_fetch_line = ~LineAddr(0);
    const DecodedTrace &decoded = trace.ensureDecoded();

    auto src_ready = [&](const TraceRecord &rec) {
        Cycle t = now;
        if (rec.src1 != InvalidReg)
            t = std::max(t, reg_ready[rec.src1]);
        if (rec.src2 != InvalidReg)
            t = std::max(t, reg_ready[rec.src2]);
        return t;
    };

    for (std::size_t i = 0;
         i < trace.size() && stats.instructions < max_insts; ++i) {
        const TraceRecord &rec = trace[i];
        const Cycle record_start = now;
        mem_.tick(now);

        // Fetch through the L1I, one line at a time.
        const LineAddr fetch_line = decoded.pcLine[i];
        if (fetch_line != last_fetch_line) {
            auto out = mem_.fetch(rec.pc, now);
            while (!out.ok) {
                ++now;
                mem_.tick(now);
                out = mem_.fetch(rec.pc, now);
            }
            last_fetch_line = fetch_line;
            if (!out.l1Hit)
                now = std::max(now, out.readyAt);
        }

        AccessOutcome mem_out;
        switch (rec.cls) {
          case InstClass::Load: {
            // Stall until address operands are ready, then access;
            // the value becomes ready later (stall-on-use).
            now = std::max(now, src_ready(rec));
            auto out = mem_.load(rec.effAddr, now);
            while (!out.ok) {
                ++now;
                mem_.tick(now);
                out = mem_.load(rec.effAddr, now);
            }
            mem_out = out;
            if (on_access)
                on_access(rec, out, now);
            if (rec.dest != InvalidReg)
                reg_ready[rec.dest] = out.readyAt;
            ++stats.memInstructions;
            ++now;
            break;
          }
          case InstClass::Store: {
            now = std::max(now, src_ready(rec));
            mem_out = mem_.store(rec.effAddr, now);
            if (on_access)
                on_access(rec, mem_out, now);
            ++stats.memInstructions;
            ++now;
            break;
          }
          case InstClass::Branch: {
            now = std::max(now, src_ready(rec));
            auto result =
                bp_.predictAndTrain(rec.pc, rec.taken, rec.effAddr);
            ++stats.branches;
            if (result.mispredict()) {
                ++stats.branchMispredicts;
                now += params_.mispredictPenalty;
            }
            if (rec.taken)
                last_fetch_line = ~LineAddr(0);
            ++now;
            break;
          }
          case InstClass::BlockBegin:
          case InstClass::BlockEnd:
          case InstClass::Nop:
            // Architectural no-ops.
            break;
          default: {
            now = std::max(now, src_ready(rec));
            Cycle lat = params_.intAluLatency;
            if (rec.cls == InstClass::IntMul)
                lat = params_.intMulLatency;
            else if (rec.cls == InstClass::FpAlu)
                lat = params_.fpLatency;
            if (rec.dest != InvalidReg)
                reg_ready[rec.dest] = now + lat;
            ++now;
            break;
          }
        }

        if (decoded.flags[i] & DecodedTrace::InBlock)
            stats.loopCycles += now - record_start;
        if (on_commit)
            on_commit(rec, mem_out, now);
        if (trace_ && trace_->wants(now))
            trace_->counter("core.commit", now, 1);

        ++stats.instructions;
        if (!warmed && stats.instructions >= warmup_insts) {
            warmed = true;
            warm_snapshot = stats;
            warm_snapshot.cycles = now;
            if (on_warmup)
                on_warmup(now);
        }
    }

    stats.cycles = now;
    if (warmup_insts > 0 && warmed)
        subtractCounters(stats, warm_snapshot);
    return stats;
}

} // namespace cbws
