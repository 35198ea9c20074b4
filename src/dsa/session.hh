/**
 * @file
 * The host side of one storage attachment, whatever its transport.
 *
 * The paper compares kDSA, wDSA and cDSA with locally attached disks
 * through one block interface, and the iSCSI rival is one more such
 * attachment (DESIGN.md §11). dsa::DsaClient (VI), iscsi::Initiator
 * (TCP) and dsa::LocalBackend (the kernel driver stack) derive from
 * Session and keep only their path.
 */

#ifndef V3SIM_DSA_SESSION_HH
#define V3SIM_DSA_SESSION_HH

#include <cstdint>
#include <string>

#include "dsa/block_device.hh"
#include "osmodel/node.hh"
#include "sim/metrics.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"

namespace v3sim::dsa
{

/** One host-side session to a storage volume: the host node, the
 *  metric prefix and the metrics every session registers under it. */
class Session : public BlockDevice
{
  public:
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Connects (handshake, login); resolves true once the session
     *  can carry I/O. Must complete before the first read/write. */
    virtual sim::Task<bool> connect() = 0;

    /** @name BlockDevice, forwarded to io()
     * The untagged overloads send tenant 0 (DESIGN.md §12). @{ */
    sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer) final
    {
        return io(false, offset, len, buffer, 0);
    }

    sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer) final
    {
        return io(true, offset, len, buffer, 0);
    }

    sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer,
         uint64_t tenant) final
    {
        return io(false, offset, len, buffer, tenant);
    }

    sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer,
          uint64_t tenant) final
    {
        return io(true, offset, len, buffer, tenant);
    }
    /** @} */

    /** @name Statistics @{ */
    uint64_t ioCount() const { return ios_.value(); }
    /** Retransmissions below the session: DSA requests, TCP segments
     *  under iSCSI, none for local disks. */
    virtual uint64_t retransmitCount() const = 0;
    /** End-to-end I/O latency (ns). */
    const sim::Sampler &latency() const { return latency_.raw(); }
    /** End-to-end I/O latency distribution (ns), for p50/p95/p99. */
    const sim::Histogram &
    latencyHistogram() const
    {
        return latency_hist_.raw();
    }
    /** @} */

  protected:
    /** Registers `.ios`, `.latency_ns` and `.latency_hist_ns` under
     *  @p metric_base, uniquified ("client.cdsa0", "iscsi.init#2"). */
    Session(osmodel::Node &node, const std::string &metric_base)
        : node_(node),
          metric_prefix_(node.sim().metrics().uniquePrefix(metric_base)),
          ios_(node.sim().metrics().counter(metric_prefix_ + ".ios")),
          latency_(node.sim().metrics().sampler(metric_prefix_ +
                                                ".latency_ns")),
          latency_hist_(node.sim().metrics().histogram(
              metric_prefix_ + ".latency_hist_ns"))
    {}

    /** One I/O end to end, tenant-tagged; ends with record(). */
    virtual sim::Task<bool> io(bool is_write, uint64_t offset,
                               uint64_t len, sim::Addr buffer,
                               uint64_t tenant) = 0;

    /** Counts one finished I/O and its latency since @p start. */
    void
    record(sim::Tick start)
    {
        ios_.increment();
        const double elapsed =
            static_cast<double>(node_.sim().now() - start);
        latency_.add(elapsed);
        latency_hist_.add(elapsed);
    }

    osmodel::Node &node_;

    /// Registry path prefix; must precede the metric references so
    /// it is initialised first.
    const std::string metric_prefix_;

  private:
    sim::CounterHandle ios_;
    sim::SamplerHandle latency_;
    sim::HistogramHandle latency_hist_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_SESSION_HH
