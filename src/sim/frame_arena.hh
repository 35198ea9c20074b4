/**
 * @file
 * Size-bucketed freelist arena for coroutine frames.
 *
 * Every simulated IO walks several short-lived coroutine frames
 * (issue path, completion bridge, server pipeline stages); with the
 * general-purpose allocator those frames are the hottest malloc/free
 * traffic in the whole simulator. The arena recycles freed frames on
 * per-size freelists, so after warm-up the steady state performs no
 * heap calls at all on the coroutine path.
 *
 * Properties:
 *  - Sizes are rounded up to 64-byte granules; classes up to 4 KiB
 *    are pooled, larger frames fall through to ::operator new.
 *  - Freed frames are retained for reuse, never returned to the
 *    heap: the retained set is bounded by the peak number of live
 *    frames per size class, which the workload bounds by its
 *    concurrency (outstanding IOs x pipeline depth).
 *  - The freelist heads are per thread (`thread_local`): each
 *    simulation runs on one thread, so simulations on different
 *    threads never share a list. A thread's retained frames stay
 *    allocated after it exits.
 *  - Recycling affects only host memory addresses, which no model
 *    code observes, so simulation results are bit-identical with or
 *    without the arena.
 */

#ifndef V3SIM_SIM_FRAME_ARENA_HH
#define V3SIM_SIM_FRAME_ARENA_HH

#include <cstddef>
#include <new>

namespace v3sim::sim
{

class FrameArena
{
  public:
    static void *
    allocate(std::size_t size)
    {
        const std::size_t cls = classOf(size);
        if (cls >= kClasses)
            return ::operator new(size);
        FreeNode *&head = lists()[cls];
        if (head != nullptr) {
            FreeNode *node = head;
            head = node->next;
            return node;
        }
        return ::operator new((cls + 1) * kGranule);
    }

    static void
    deallocate(void *ptr, std::size_t size) noexcept
    {
        const std::size_t cls = classOf(size);
        if (cls >= kClasses) {
            ::operator delete(ptr);
            return;
        }
        auto *node = static_cast<FreeNode *>(ptr);
        node->next = lists()[cls];
        lists()[cls] = node;
    }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kClasses = 64; // pools up to 4 KiB

    static std::size_t
    classOf(std::size_t size)
    {
        return (size + kGranule - 1) / kGranule - 1;
    }

    /** This thread's freelist heads; function-local so header-only
     *  use is safe. */
    static FreeNode **
    lists()
    {
        static thread_local FreeNode *heads[kClasses] = {};
        return heads;
    }
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_FRAME_ARENA_HH
