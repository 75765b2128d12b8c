/**
 * @file
 * What the seeded op generators may draw from, per trace: its
 * registry's sessions and their descriptions, the active sessions
 * with their simulated counters, the installed object ranges and the
 * write-site (aux) values. Built untimed from the loaded trace, which
 * the caller keeps only as long as its oracles need it.
 */

#ifndef EDB_PERFBENCH_CATALOG_H
#define EDB_PERFBENCH_CATALOG_H

#include <cstdint>
#include <string>
#include <vector>

#include "session/session.h"
#include "sim/counters.h"
#include "trace/trace.h"

namespace pb {

struct Catalog
{
    edb::session::SessionSet sessions;
    edb::sim::SimResult sim;
    /** Sessions with at least one hit. */
    std::vector<edb::session::SessionId> active;
    /** Distinct install ranges (object instances), stream order. */
    std::vector<edb::AddrRange> objects;
    /** Distinct write aux values (write sites), ascending. */
    std::vector<std::uint32_t> aux;
};

/** Enumerate, simulate and index the trace's drawable parts. */
Catalog buildCatalog(const edb::trace::Trace &trace);

} // namespace pb

#endif // EDB_PERFBENCH_CATALOG_H
