/**
 * @file
 * Model warnings on stderr, stamped with simulated time.
 *
 * A warning reports something a healthy run should not see (a packet
 * to no port, a failed-over replica, a block the durability audit
 * finds lost). The caller passes its own simulation's clock, so two
 * simulations alive at once each stamp their own time and no
 * process-wide state is needed. Warnings never reach stdout or an
 * artifact.
 */

#ifndef V3SIM_SIM_WARN_HH
#define V3SIM_SIM_WARN_HH

#include <string>

#include "sim/types.hh"

namespace v3sim::sim
{

/** Prints "[<now> us] WARN  <component> <message>" to stderr. */
void warn(Tick now, const char *component, const std::string &message);

} // namespace v3sim::sim

#endif // V3SIM_SIM_WARN_HH
