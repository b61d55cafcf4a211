/**
 * @file
 * The backend table: every DRAM timing model, one row each (see
 * backend.hh).
 */

#include "mem/dram/backend.hh"

#include "base/logging.hh"
#include "mem/dram/ddr.hh"

namespace cbws
{

DramBackendRegistry::DramBackendRegistry()
{
    const Entry table[] = {
        {"fixed",
         "flat latency (Table II: 300 cycles) + optional legacy "
         "min-interval throttle; the default, bit-identical to the "
         "paper's model",
         makeFixedDramBackend},
        {"ddr",
         "cycle-level banked model: channels/ranks/banks, open-page "
         "rows, tRCD/tRP/tCL/tFAW/refresh, read/write queues with "
         "write-drain, FR-FCFS-style scheduling that defers prefetches "
         "under queue pressure",
         [](const HierarchyParams &params)
             -> std::unique_ptr<DramBackend> {
             return std::make_unique<DdrBackend>(params);
         }},
    };
    for (const Entry &entry : table)
        panic_if(!entries_.emplace(canon(entry.name), entry).second,
                 "dram backend registry: duplicate backend '%s'",
                 entry.name.c_str());
}

const DramBackendRegistry &
dramBackendRegistry()
{
    static const DramBackendRegistry registry;
    return registry;
}

} // namespace cbws
