// Fixture: the sanctioned statics — constants, per-thread state and
// static functions (a return type on its own line included). Per-run
// state lives in the Simulation or a component.
#include <cstddef>

namespace model
{

static constexpr int kSlots = 4;

struct Arena
{
    static const char *name();
    static Arena &
    instance();
    static constexpr std::size_t kGranule = 64;

    static void **
    heads()
    {
        static thread_local void *lists[kSlots] = {};
        return lists;
    }
};

int
perThread()
{
    thread_local static int calls = 0;
    static const char *const kLabel = "model";
    static_assert(kSlots > 0);
    return ++calls + static_cast<int>(sizeof(kLabel));
}

} // namespace model
