/**
 * @file
 * The scheme table: every prefetch scheme the simulator knows, one
 * row each (see registry.hh).
 */

#include "prefetch/registry.hh"

#include "base/logging.hh"
#include "core/cbws_prefetcher.hh"
#include "prefetch/addon.hh"
#include "prefetch/ampm.hh"
#include "prefetch/composite.hh"
#include "prefetch/ghb.hh"
#include "prefetch/multistride.hh"
#include "prefetch/pangloss.hh"
#include "prefetch/pythia.hh"
#include "prefetch/sms.hh"
#include "prefetch/stride.hh"

namespace cbws
{

namespace
{

/** Factory of a scheme built from one parameter struct. */
template <typename P, typename Params>
std::unique_ptr<Prefetcher>
make(const ParamSet &p)
{
    return std::make_unique<P>(p.getOr<Params>());
}

template <GhbPrefetcher::Mode M>
std::unique_ptr<Prefetcher>
makeGhb(const ParamSet &p)
{
    return std::make_unique<GhbPrefetcher>(M, p.getOr<GhbParams>());
}

} // anonymous namespace

PrefetcherRegistry::PrefetcherRegistry()
{
    const Entry table[] = {
        {"No-Prefetch", "baseline without any prefetching",
         ParamSchema(),
         [](const ParamSet &) -> std::unique_ptr<Prefetcher> {
             return std::make_unique<NullPrefetcher>();
         }},
        {"Stride", "reference-prediction-table stride prefetcher",
         strideParamSchema(), make<StridePrefetcher, StrideParams>},
        {"GHB-PC/DC",
         "global history buffer, per-PC delta correlation",
         ghbParamSchema(), makeGhb<GhbPrefetcher::Mode::PcDC>},
        {"GHB-G/DC",
         "global history buffer, global delta correlation",
         ghbParamSchema(), makeGhb<GhbPrefetcher::Mode::GlobalDC>},
        {"SMS", "spatial memory streaming prefetcher", smsParamSchema(),
         make<SmsPrefetcher, SmsParams>},
        {"AMPM", "access map pattern matching prefetcher",
         ampmParamSchema(), make<AmpmPrefetcher, AmpmParams>},
        {"CBWS",
         "code block working set prefetcher (the paper's scheme)",
         cbwsParamSchema(), make<CbwsPrefetcher, CbwsParams>},
        // Composite schemes expose per-component tuning through
        // scoped keys: `--pf-opt cbws.table-entries=32`.
        {"CBWS+SMS", "CBWS with SMS fallback (Section VI integration)",
         ParamSchema()
             .scoped("cbws", cbwsParamSchema())
             .scoped("sms", smsParamSchema()),
         [](const ParamSet &p) -> std::unique_ptr<Prefetcher> {
             return std::make_unique<CbwsSmsPrefetcher>(
                 p.getOr<CbwsParams>(), p.getOr<SmsParams>());
         }},
        {"CBWS+AMPM", "CBWS gating an AMPM base prefetcher",
         ParamSchema()
             .scoped("cbws", cbwsParamSchema())
             .scoped("ampm", ampmParamSchema()),
         [](const ParamSet &p) -> std::unique_ptr<Prefetcher> {
             return std::make_unique<CbwsAddOnPrefetcher>(
                 std::make_unique<AmpmPrefetcher>(
                     p.getOr<AmpmParams>()),
                 p.getOr<CbwsParams>());
         }},
        {"Multistride", "IP-indexed multi-stride hybrid (Blom et al.)",
         multistrideParamSchema(),
         make<MultistridePrefetcher, MultistrideParams>},
        {"Pangloss",
         "per-page Markov chain over line deltas, compressed "
         "transition table",
         panglossParamSchema(), make<PanglossPrefetcher, PanglossParams>},
        {"Pythia",
         "online-RL prefetcher: pluggable features, discrete actions, "
         "shaped rewards",
         pythiaParamSchema(), make<PythiaPrefetcher, PythiaParams>},
    };
    for (const Entry &entry : table)
        panic_if(!entries_.emplace(canon(entry.name), entry).second,
                 "prefetcher registry: duplicate scheme '%s'",
                 entry.name.c_str());
}

const PrefetcherRegistry &
prefetcherRegistry()
{
    static const PrefetcherRegistry registry;
    return registry;
}

} // namespace cbws
