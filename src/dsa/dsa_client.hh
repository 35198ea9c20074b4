/**
 * @file
 * The DSA client: kDSA, wDSA and cDSA over one V3 connection.
 *
 * DSA (Direct Storage Access) is the paper's client-side block-I/O
 * module between the application and VI (section 2.2). This class
 * implements the full protocol machinery the paper says VI lacks —
 *
 *  - credit-based flow control sized by the server's Hello grant
 *    (never overruns the server's posted receives);
 *  - request-level retransmission with per-connection sequence
 *    numbers (the server deduplicates, so writes stay exactly-once);
 *  - reconnection: on a dead VI, a fresh endpoint is connected,
 *    Hello re-run, and every outstanding request re-staged and
 *    re-sent;
 *
 * — plus the three optimizations of section 3 (batched
 * deregistration, interrupt batching, reduced lock synchronization),
 * and the three implementation flavors that differ in where their
 * paths run and what semantics they must honor:
 *
 *  kDSA  kernel driver under the standard storage API: every I/O
 *        rides the I/O manager (syscall, IRP, probe-and-lock, its
 *        sync pairs) and completes through an interrupt; buffers
 *        reach the driver pre-pinned. Interrupt batching disables
 *        completion interrupts above a threshold of outstanding
 *        I/Os and drains completions on the issue path instead.
 *  wDSA  user-level kernel32.dll replacement: issue avoids the
 *        kernel, but Win32 completion semantics force an interrupt,
 *        a kernel event signal and a context switch per I/O, plus
 *        costly semantics emulation; no section-3 optimizations
 *        apply (the paper: "opportunities for optimizations are
 *        severely limited").
 *  cDSA  the new 15-call API: issue is a doorbell from user space
 *        on AWE (pre-pinned) buffers; completion is a server RDMA
 *        flag the application polls, falling back to a sleep that
 *        costs an interrupt when polling times out (section 3.2).
 *
 * CPU time is charged to the categories of Figure 11 as each path
 * executes, so utilization breakdowns and lock contention are
 * emergent rather than dialed in.
 */

#ifndef V3SIM_DSA_DSA_CLIENT_HH
#define V3SIM_DSA_DSA_CLIENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsa/dsa_costs.hh"
#include "dsa/protocol.hh"
#include "dsa/reg_cache.hh"
#include "dsa/session.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "osmodel/sim_lock.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/ordered_index.hh"
#include "vi/vi_nic.hh"

namespace v3sim::dsa
{

/** Which DSA implementation this client instance models. */
enum class DsaImpl : uint8_t
{
    Kdsa,
    Wdsa,
    Cdsa,
};

const char *dsaImplName(DsaImpl impl);

/** One DSA connection: client NIC endpoint to a V3 node's one
 *  volume (id 0 on the wire). */
class DsaClient : public Session
{
  public:
    /**
     * @param node the database host.
     * @param nic the client NIC this connection rides (the paper's
     *        configurations pair one NIC with one V3 node).
     * @param server_port fabric port of the V3 server.
     */
    DsaClient(DsaImpl impl, osmodel::Node &node, vi::ViNic &nic,
              net::PortId server_port, DsaConfig config = {});

    ~DsaClient() override;

    /** Connects, runs Hello, and sizes flow control from the
     *  server's grant. */
    sim::Task<bool> connect() override;

    uint64_t capacity() const override { return capacity_; }

    const DsaConfig &config() const { return config_; }
    bool connected() const { return ready_; }

    /**
     * One fresh connection attempt after the client declared the
     * volume dead (reconnection exhausted). Used by MirroredDevice's
     * resync prober to test whether a crashed node is back. Returns
     * true when the connection is live again; false leaves the
     * client dead for the next probe. No-op true if already
     * connected.
     */
    sim::Task<bool> revive();

    /** @name Statistics @{ */
    uint64_t retransmitCount() const override { return retransmits_.value(); }
    uint64_t reconnectCount() const { return reconnects_.value(); }
    /** Completions rejected by the end-to-end digest/taint check and
     *  recovered via retransmission (transient wire damage). */
    uint64_t
    digestMismatchCount() const
    {
        return digest_mismatches_.value();
    }
    /** I/Os the server failed with IntegrityError: the block is
     *  damaged on its disk, and only a replica can help (this is the
     *  signal dsa::MirroredDevice repairs on). */
    uint64_t
    integrityErrorCount() const
    {
        return integrity_errors_.value();
    }
    /** @} */

  private:
    struct PendingIo
    {
        uint64_t id = 0;
        RequestMsg msg;
        sim::Addr buffer = sim::kNullAddr;
        vi::MemHandle handle;
        uint32_t staging_slot = UINT32_MAX;
        uint32_t flag_index = UINT32_MAX;
        bool flag_set = false;
        bool ok = false;
        bool done = false;
        /** A damaged RDMA fragment landed in this I/O's buffer (set
         *  by the NIC observer; how phantom runs detect read-data
         *  corruption). Reset when a fresh transfer starts. */
        bool tainted = false;
        int retx_count = 0;
        sim::Tick issued_at = 0;
        sim::Completion<bool> completion;
        sim::EventQueue::Handle retx_timer;
    };

    /** One entry of pending_. The I/O's buffer range is copied in so
     *  the RDMA-taint lookup scans contiguous memory. */
    struct Outstanding
    {
        PendingIo *io = nullptr;
        sim::Addr buffer = sim::kNullAddr;
        sim::Addr end = sim::kNullAddr; ///< buffer + len
    };

    /** Gives @p io its id, flag slot and sequence number, completes
     *  its message header and registers it as outstanding with its
     *  flag cleared. The caller has set the op-specific fields. */
    void track(PendingIo &io, uint64_t offset, uint64_t len);

    /** Disarms @p io's retransmit timer, unregisters it and frees its
     *  flag slot. */
    void untrack(PendingIo &io);

    /** Submits one request and waits for its completion. */
    sim::Task<bool> io(bool is_write, uint64_t offset, uint64_t len,
                       sim::Addr buffer, uint64_t tenant) override;

    /** The implementation-specific issue-side path. */
    sim::Task<> issuePath(osmodel::CpuLease &lease, PendingIo &io);

    /** Per-implementation count of DSA-layer sync pairs per path. */
    int ownSyncPairs() const;

    /** Posts the request message (and write data first). */
    void postRequest(PendingIo &io);

    /** Waits for the request to complete (mode-specific). */
    sim::Task<bool> awaitCompletion(PendingIo &io);

    /** Interrupt-side: drains the receive CQ, completing requests. */
    sim::Task<> drainRecvCq(osmodel::CpuLease lease,
                            bool interrupt_context);

    /** Applies the server's @p status to @p io. BadDigest (also what
     *  damaged data found here maps to) retransmits at once and
     *  returns false; any other status is final: counted, @p io is
     *  marked done, and true is returned. */
    bool settle(PendingIo &io, IoStatus status);

    /** Completion-side costs for one response (Message mode). */
    sim::Task<> completeFromResponse(osmodel::CpuLease &lease,
                                     const ResponseMsg &response);

    /** Releases the I/O buffer's registration: batched bookkeeping,
     *  or a per-I/O deregistration under the global memory lock. */
    sim::Task<> deregisterBuffer(osmodel::CpuLease &lease,
                                 PendingIo &io);

    /** Applies the kDSA interrupt-(re)arming policy. */
    void applyArmPolicy();

    /** Keeps draining while interrupts are disabled (safety net). */
    sim::Task<> backupPoller();

    /** Arms the request's retransmission timer. */
    void scheduleRetransmit(PendingIo &io);

    /** Retransmission timer body. */
    sim::Task<> retransmit(uint64_t io_id);

    /** Re-sends @p io's request flagged as a retransmission and
     *  re-arms its timer. */
    sim::Task<> resend(PendingIo &io);

    /** Tears down and re-establishes the connection, then replays
     *  every outstanding request. */
    sim::Task<> reconnect();

    /** Establishes endpoint + Hello; shared by connect/reconnect. */
    sim::Task<bool> establish();

    /** RDMA observer: taints I/O buffers hit by damaged fragments
     *  and marks completion flags as they land. */
    void onRdmaEvent(const vi::ViNic::RdmaEvent &event);

    /** Lowest outstanding sequence (piggybacked ack watermark). */
    uint64_t ackBelow() const;

    osmodel::CpuPool &cpus() { return node_.cpus(); }

    /**
     * Host CPU admission for work on an I/O keyed by @p key — its
     * buffer: content, unique per concurrent submitter. Several
     * clients can serve one submitter (a mirror's legs share the
     * application's buffer), so equal keys break by this client's NIC
     * port, never by arrival order (DESIGN.md §8.3).
     */
    auto
    acquireCpu(uint64_t key)
    {
        return cpus().acquire(osmodel::CpuPool::kNormalPriority, key,
                              nic_.port());
    }

    /** Response-receive / flag slots: oversized vs credits so
     *  duplicate responses to retransmissions never overrun. */
    uint32_t
    responseSlots() const
    {
        return 2 * config_.max_outstanding + 8;
    }

    DsaImpl impl_;
    vi::ViNic &nic_;
    net::PortId server_port_;
    DsaConfig config_;
    CompletionMode mode_;

    std::unique_ptr<vi::CompletionQueue> recv_cq_;
    vi::ViEndpoint *ep_ = nullptr;

    std::unique_ptr<RegCache> reg_cache_;

    /** DSA-layer and VI-layer locks (the section 3.3 sync pairs). */
    osmodel::SimLock own_lock_;
    osmodel::SimLock vi_send_lock_;
    osmodel::SimLock vi_recv_lock_;

    /** Registered message/response/flag buffers. */
    sim::Addr msg_buf_ = sim::kNullAddr;
    vi::MemHandle msg_handle_;
    sim::Addr resp_buf_base_ = sim::kNullAddr;
    vi::MemHandle resp_handle_;
    sim::Addr flag_base_ = sim::kNullAddr;
    vi::MemHandle flag_handle_;

    /** Flow control (sized by HelloAck). */
    std::unique_ptr<sim::Semaphore> credits_;
    std::unique_ptr<sim::Semaphore> staging_sem_;
    std::vector<uint32_t> free_staging_;
    std::vector<uint32_t> free_flags_;
    sim::Addr staging_base_ = sim::kNullAddr;
    uint64_t staging_slot_bytes_ = 0;
    uint32_t granted_credits_ = 0;

    uint64_t capacity_ = 0;
    bool ready_ = false;
    bool dead_ = false;
    bool reconnecting_ = false;
    bool draining_ = false;
    bool backup_poller_active_ = false;

    uint64_t next_id_ = 1;
    uint64_t next_seq_ = 0;
    /// Outstanding I/Os by id. track() issues ids and sequence
    /// numbers together, so id order is sequence order: the front
    /// holds the ack watermark, and reconnect replay and RDMA-taint
    /// lookups walk it in that order (DESIGN.md §8).
    util::OrderedIndex<uint64_t, Outstanding> pending_;
    /// Flag slot -> the I/O it belongs to, nullptr while free.
    std::vector<PendingIo *> flag_io_;
    sim::Completion<bool> *connect_waiter_ = nullptr;
    sim::Completion<bool> *hello_waiter_ = nullptr;

    sim::CounterHandle retransmits_;
    sim::CounterHandle reconnects_;
    sim::CounterHandle abandoned_reconnects_;
    sim::CounterHandle revives_;
    sim::CounterHandle intr_completions_;
    sim::CounterHandle polled_completions_;
    sim::CounterHandle digest_mismatches_;
    sim::CounterHandle integrity_errors_;
    /** I/Os the server's admission gate refused with Busy. The
     *  client fails them immediately (deliberate backpressure, not
     *  loss — retransmitting would re-feed the overload). */
    sim::CounterHandle busy_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_DSA_CLIENT_HH
