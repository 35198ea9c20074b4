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
 *  mechanism: the local disk::StripeVolume (same disk models as a
 *             V3 node);
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
#include "dsa/session.hh"
#include "osmodel/node.hh"

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

/** Locally attached storage through the kernel driver stack; the
 *  HBA path carries no tenant tag. */
class LocalBackend : public Session
{
  public:
    LocalBackend(osmodel::Node &node, disk::StripeVolume &volume);

    /** Nothing to connect: the disks are attached. */
    sim::Task<bool> connect() override { co_return true; }

    uint64_t capacity() const override { return volume_.capacity(); }

    uint64_t retransmitCount() const override { return 0; }
    uint64_t interruptCount() const { return interrupts_.value(); }

  private:
    struct Done
    {
        sim::Completion<> *completion;
        uint64_t pages;
    };

    sim::Task<bool> io(bool is_write, uint64_t offset, uint64_t len,
                       sim::Addr buffer, uint64_t tenant) override;

    /** Controller completion: queue + coalesced interrupt. */
    void onMechanismDone(sim::Completion<> *completion, uint64_t pages);

    sim::Task<> interruptHandler(osmodel::CpuLease lease);

    disk::StripeVolume &volume_;
    const HbaCosts costs_{};
    std::deque<Done> done_queue_;
    bool interrupt_pending_ = false;

    sim::CounterHandle interrupts_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_LOCAL_BACKEND_HH
