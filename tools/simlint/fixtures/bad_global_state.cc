// Fixture: model code must keep no mutable process-wide state. Each
// static below is shared by every simulation in the process.
#include <vector>

namespace model
{

static int runs_started = 0;

struct Registry
{
    static Registry *current;
    static std::vector<int>
        free_slots;
};

int
nextId()
{
    static int next = 0;
    return ++next + runs_started;
}

} // namespace model
