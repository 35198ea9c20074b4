/**
 * @file
 * Micro-benchmark rig for the paper's section 5 experiments.
 *
 * "In our experiments, the V3 configuration uses two nodes, a single
 * application client that runs our micro-benchmark and a single
 * storage node that presents a virtual disk to the application
 * client. The local case uses a locally-attached disk, without any
 * V3 software." (section 5)
 *
 * The rig builds exactly that, measures request latency (with the
 * Figure 4 breakdown: client CPU overhead / node-to-node / V3 server
 * time), closed-loop throughput at a chosen outstanding-request
 * count, and the raw-VI reference latency of Figure 3 (the
 * register / send / RDMA-response / interrupt / deregister cycle the
 * paper lists step by step).
 */

#ifndef V3SIM_SCENARIOS_MICROBENCH_HH
#define V3SIM_SCENARIOS_MICROBENCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "scenarios/testbed.hh"

namespace v3sim::scenarios
{

/** Micro-benchmark platform: one client, one storage target. */
class MicroRig
{
  public:
    struct Config
    {
        Backend backend = Backend::Cdsa;
        /** V3 server cache (0 = off, the Figure 7/8 setting). */
        uint64_t cache_bytes = 512ull * util::kMiB;
        int disks = 8;
        disk::DiskSpec disk_spec = disk::DiskSpec::scsi10k();
        dsa::DsaConfig dsa;
        uint64_t seed = 42;
    };

    explicit MicroRig(Config config);
    ~MicroRig();

    MicroRig(const MicroRig &) = delete;
    MicroRig &operator=(const MicroRig &) = delete;

    /** True once the client connected (Local is always ready). */
    bool ready() const { return ready_; }

    sim::Simulation &sim() { return testbed_->sim(); }
    osmodel::Node &host() { return testbed_->host(); }
    dsa::BlockDevice &device() { return testbed_->device(); }

    /** Latency measurement with the Figure 4 breakdown. */
    struct LatencyResult
    {
        double mean_us = 0;         ///< end-to-end response time
        double cpu_overhead_us = 0; ///< host CPU busy per I/O
        double server_us = 0;       ///< V3-server-resident time
        /** Client-observed tail latency (the session's log2-bucket
         *  histogram). @{ */
        double p50_us = 0;
        double p95_us = 0;
        double p99_us = 0;
        /** @} */
        /** mean - cpu - server: wire, NIC, and DMA time. */
        double
        wireUs() const
        {
            return std::max(0.0, mean_us - cpu_overhead_us - server_us);
        }
    };

    /**
     * Runs @p iterations sequential requests of @p size.
     * @param cached confine offsets to a pre-warmed region so every
     *        access hits the V3 cache (sections 5.1/5.2); otherwise
     *        offsets are uniform over the device (section 5.3).
     */
    LatencyResult measureLatency(uint64_t size, bool is_read,
                                 int iterations, bool cached);

    /** Closed-loop throughput with @p outstanding requests. */
    struct ThroughputResult
    {
        double mbps = 0;
        double mean_response_us = 0;
        double iops = 0;
        /** Host CPU busy per completed I/O over the window. */
        double cpu_us_per_io = 0;
        /** Client-observed tail latency over the window and drain
         *  (the session's histogram). @{ */
        double p95_us = 0;
        double p99_us = 0;
        /** @} */
    };

    ThroughputResult measureThroughput(uint64_t size, bool is_read,
                                       int outstanding,
                                       sim::Tick window, bool cached);

  private:
    /** Pre-warms the cached-region blocks (one read sweep). */
    void warmRegion(uint64_t size);

    Config config_;
    std::unique_ptr<Testbed> testbed_;
    bool ready_ = false;
    uint64_t warm_bytes_ = 0;
    sim::Addr buffer_pool_ = sim::kNullAddr;
    sim::Rng rng_;
};

/**
 * Raw VI round-trip latency (the Figure 3 "VI" series): client
 * registers a receive buffer, sends a 64-byte request, the server
 * RDMA-writes @p size bytes back (with immediate), the client takes
 * the completion interrupt and deregisters. Returns the mean
 * microseconds over @p iterations.
 */
double rawViLatencyUs(uint64_t size, int iterations,
                      uint64_t seed = 11);

} // namespace v3sim::scenarios

#endif // V3SIM_SCENARIOS_MICROBENCH_HH
