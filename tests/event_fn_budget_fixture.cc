// Compile-fail fixture for the ctest `event_fn_budget_enforced` (see
// event_fn_budget.cmake): schedules a lambda whose capture is
// CAPTURE_BYTES bytes. At the default 96, over
// sim::EventFn::kInlineBytes, it must not compile; at 48 it must.

#include <array>

#include "sim/event_queue.hh"

#ifndef CAPTURE_BYTES
#define CAPTURE_BYTES 96
#endif

void
scheduleCapture(v3sim::sim::EventQueue &queue)
{
    std::array<unsigned char, CAPTURE_BYTES> state{};
    queue.schedule(1, [state] { (void)state; });
}
