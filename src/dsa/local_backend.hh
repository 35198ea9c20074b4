/**
 * @file
 * The local-disk baseline: "the same disks ... connected directly to
 * the database server (in the local case)" behind a well-tuned
 * Fibre-Channel/SCSI host-bus-adapter driver.
 *
 * Per section 7, such drivers are "optimized to reduce the number of
 * interrupts on the receive path, and to impose very little overhead
 * on the send path" by offloading to controller hardware — but the
 * path still crosses the kernel (I/O manager) both ways, which is
 * exactly the cost structure VI/DSA attacks.
 *
 * Path model, per request:
 *  issue:     I/O manager (syscall + IRP + probe-and-lock + two sync
 *             pairs) + a small HBA driver cost;
 *  mechanism: the local Volume (same disk models as a V3 node);
 *  complete:  controller interrupt (with natural coalescing: one
 *             interrupt drains all completions pending at that
 *             moment), HBA completion cost, I/O manager completion
 *             (sync pairs, unpin, wake thread).
 */

#ifndef V3SIM_DSA_LOCAL_BACKEND_HH
#define V3SIM_DSA_LOCAL_BACKEND_HH

#include <deque>
#include <memory>

#include "disk/volume.hh"
#include "dsa/block_device.hh"
#include "osmodel/node.hh"
#include "sim/stats.hh"

namespace v3sim::dsa
{

/** Tuned HBA driver cost model. */
struct HbaCosts
{
    /** Send-path driver work ("very little overhead"). */
    sim::Tick issue = sim::usecs(0.6);
    /** Receive-path driver work per completion. */
    sim::Tick complete = sim::usecs(0.6);
    /** Hardware interrupt-coalescing window: completions arriving
     *  within it share one interrupt (section 7: controllers
     *  "optimized to reduce the number of interrupts on the receive
     *  path"). */
    sim::Tick coalesce_window = sim::usecs(15);
};

/** Locally attached storage through the kernel driver stack. */
class LocalBackend : public BlockDevice
{
  public:
    LocalBackend(osmodel::Node &node, disk::Volume &volume,
                 HbaCosts costs = {});

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::Addr buffer) override;
    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          sim::Addr buffer) override;
    uint64_t capacity() const override { return volume_.capacity(); }

    uint64_t ioCount() const { return ios_.value(); }
    uint64_t interruptCount() const { return interrupts_.value(); }
    const sim::Sampler &latency() const { return latency_.raw(); }
    /** End-to-end I/O latency distribution (ns), for p50/p95/p99. */
    const sim::Histogram &latencyHistogram() const
    {
        return latency_hist_.raw();
    }

  private:
    struct Done
    {
        sim::Completion<bool> *completion;
        bool ok;
        uint64_t pages;
    };

    sim::Task<bool> submit(bool is_write, uint64_t offset,
                           uint64_t len, sim::Addr buffer);

    /** Controller completion: queue + coalesced interrupt. */
    void onMechanismDone(sim::Completion<bool> *completion, bool ok,
                         uint64_t pages);

    sim::Task<> interruptHandler(osmodel::CpuLease lease);

    osmodel::Node &node_;
    disk::Volume &volume_;
    HbaCosts costs_;
    std::deque<Done> done_queue_;
    bool interrupt_pending_ = false;

    /// Registry path prefix ("client.local", uniquified); must
    /// precede the metric references so it is initialised first.
    std::string metric_prefix_;

    sim::CounterHandle ios_;
    sim::CounterHandle interrupts_;
    sim::SamplerHandle latency_;
    sim::HistogramHandle latency_hist_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_LOCAL_BACKEND_HH
