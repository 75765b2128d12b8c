/**
 * @file
 * Catalog construction (see catalog.h).
 */

#include "catalog.h"

#include <set>

#include "sim/simulator.h"

namespace pb {

using namespace edb;

Catalog
buildCatalog(const trace::Trace &trace)
{
    Catalog c;
    c.sessions = session::SessionSet::enumerate(trace);
    c.sim = sim::simulate(trace, c.sessions);
    for (session::SessionId id = 0; id < c.sessions.size(); ++id) {
        if (c.sim.counters[id].hits > 0)
            c.active.push_back(id);
    }
    std::set<std::pair<Addr, Addr>> seen;
    std::set<std::uint32_t> aux;
    for (const trace::Event &e : trace.events) {
        if (e.kind == trace::EventKind::Write) {
            aux.insert(e.aux);
        } else if (e.kind == trace::EventKind::InstallMonitor &&
                   e.size > 0 && seen.insert({e.begin, e.size}).second) {
            c.objects.push_back(e.range());
        }
    }
    c.aux.assign(aux.begin(), aux.end());
    return c;
}

} // namespace pb
