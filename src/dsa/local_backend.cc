#include "local_backend.hh"

namespace v3sim::dsa
{

using osmodel::CpuCat;
using osmodel::CpuLease;

LocalBackend::LocalBackend(osmodel::Node &node, disk::Volume &volume,
                           HbaCosts costs)
    : node_(node), volume_(volume), costs_(costs),
      metric_prefix_(node.sim().metrics().uniquePrefix("client.local")),
      ios_(node.sim().metrics().counter(metric_prefix_ + ".ios")),
      interrupts_(node.sim().metrics().counter(metric_prefix_ +
                                               ".interrupts")),
      latency_(node.sim().metrics().sampler(metric_prefix_ +
                                            ".latency_ns")),
      latency_hist_(node.sim().metrics().histogram(
          metric_prefix_ + ".latency_hist_ns"))
{}

sim::Task<bool>
LocalBackend::read(uint64_t offset, uint64_t len, sim::Addr buffer)
{
    return submit(false, offset, len, buffer);
}

sim::Task<bool>
LocalBackend::write(uint64_t offset, uint64_t len, sim::Addr buffer)
{
    return submit(true, offset, len, buffer);
}

sim::Task<bool>
LocalBackend::submit(bool is_write, uint64_t offset, uint64_t len,
                     sim::Addr buffer)
{
    const sim::Tick start = node_.sim().now();
    const uint64_t pages = sim::pageSpan(buffer, len);

    {
        CpuLease lease = co_await node_.cpus().acquire();
        co_await node_.ioManager().issueRequest(lease, pages,
                                                /*pin_buffer=*/true);
        co_await lease.run(costs_.issue, CpuCat::Kernel);
        node_.cpus().release();
    }

    // The mechanism (controller + spindles) runs without the CPU.
    sim::Completion<bool> completion;
    sim::spawn([](LocalBackend *backend, bool write_op, uint64_t off,
                  uint64_t n, sim::Addr buf,
                  sim::Completion<bool> *done,
                  uint64_t buf_pages) -> sim::Task<> {
        const bool ok =
            write_op
                ? co_await backend->volume_.write(
                      off, n, backend->node_.memory(), buf)
                : co_await backend->volume_.read(
                      off, n, backend->node_.memory(), buf);
        backend->onMechanismDone(done, ok, buf_pages);
    }(this, is_write, offset, len, buffer, &completion, pages));

    const bool ok = co_await completion.wait();
    ios_.increment();
    const double lat =
        static_cast<double>(node_.sim().now() - start);
    latency_.add(lat);
    latency_hist_.add(lat);
    co_return ok;
}

void
LocalBackend::onMechanismDone(sim::Completion<bool> *completion,
                              bool ok, uint64_t pages)
{
    done_queue_.push_back(Done{completion, ok, pages});
    // Interrupt coalescing: completions arriving while an interrupt
    // is pending (or within the controller's coalescing window) are
    // drained by that interrupt's handler.
    if (interrupt_pending_)
        return;
    interrupt_pending_ = true;
    node_.sim().queue().schedule(costs_.coalesce_window, [this] {
        interrupts_.increment();
        node_.interrupts().raise([this](CpuLease lease) {
            return interruptHandler(lease);
        });
    });
}

sim::Task<>
LocalBackend::interruptHandler(CpuLease lease)
{
    interrupt_pending_ = false;
    while (!done_queue_.empty()) {
        Done done = done_queue_.front();
        done_queue_.pop_front();
        co_await lease.run(costs_.complete, CpuCat::Kernel);
        co_await node_.ioManager().completeRequest(
            lease, done.pages, /*unpin_buffer=*/true);
        done.completion->set(done.ok);
    }
}

} // namespace v3sim::dsa
