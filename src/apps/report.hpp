// Cluster-wide statistics reporting: one formatted snapshot of every
// node's CPU/bus utilization and NIC counters, plus per-channel CLIC
// protocol statistics — the /proc-style introspection an operator of the
// real system would use.
#pragma once

#include <iosfwd>

#include "clic/module.hpp"
#include "os/cluster.hpp"

namespace clicsim::apps {

// Hardware-level snapshot (any protocol stack).
void report_cluster(std::ostream& os, os::Cluster& cluster);

// CLIC protocol snapshot for one module (ports, channels, counters,
// degradation telemetry: timeouts / backoff / gave-up / resets).
void report_clic(std::ostream& os, clic::ClicModule& module);

}  // namespace clicsim::apps
