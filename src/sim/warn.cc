#include "warn.hh"

#include <cstdio>

namespace v3sim::sim
{

void
warn(Tick now, const char *component, const std::string &message)
{
    std::fprintf(stderr, "[%12.3f us] WARN  %-10s %s\n",
                 static_cast<double>(now) / 1e3, component,
                 message.c_str());
}

} // namespace v3sim::sim
