#include "prefetch/composite.hh"

namespace cbws
{

CbwsSmsPrefetcher::CbwsSmsPrefetcher(const CbwsParams &cbws_params,
                                     const SmsParams &sms_params)
    : cbws_(cbws_params), sms_(sms_params)
{
}

void
CbwsSmsPrefetcher::observeAccess(const PrefetchContext &ctx,
                                 PrefetchSink &sink)
{
    // SMS always trains (cache-access time, like the standalone
    // scheme), but only issues when CBWS is not confidently covering
    // the current block.
    const bool muted = cbws_.inBlock() && cbws_.lastBlockPredicted();
    GatedSink gate(sink, muted, suppressed_);
    sms_.observeAccess(ctx, gate);
}

void
CbwsSmsPrefetcher::observeCommit(const PrefetchContext &ctx,
                                 PrefetchSink &sink)
{
    cbws_.observeCommit(ctx, sink);
}

void
CbwsSmsPrefetcher::blockBegin(BlockId id, PrefetchSink &sink)
{
    cbws_.blockBegin(id, sink);
}

void
CbwsSmsPrefetcher::blockEnd(BlockId id, PrefetchSink &sink)
{
    cbws_.blockEnd(id, sink);
}

std::uint64_t
CbwsSmsPrefetcher::storageBits() const
{
    return cbws_.storageBits() + sms_.storageBits();
}

} // namespace cbws
