/**
 * @file
 * The V3 storage server: request manager pipeline over the cache,
 * volume and disks (Figure 1 of the paper).
 *
 * One V3Server is one storage::StorageNode (a 2-CPU host, a large
 * block cache, and locally attached disks striped into one volume)
 * behind a VI NIC. Clients connect VI endpoints to it and speak the
 * DSA protocol (dsa/protocol.hh).
 *
 * Request manager structure, per section 2.1: the server "runs at
 * user level and communicates with clients with user-level VI
 * primitives" and "employs a lightweight pipeline structure ... that
 * allows large numbers of I/O requests to be serviced concurrently".
 * Here: a per-connection service loop polls the receive completion
 * queue (the paper: "we always use polling for incoming messages on
 * the server") and spawns one handler coroutine per request; handlers
 * interleave freely across cache lookups, disk I/O and RDMA.
 *
 * Read path:  RDMA the data from cache frames (or a transient buffer
 *             when caching is off) straight into the client's
 *             registered buffer, then complete.
 * Write path: the payload is already in a server staging slot (the
 *             client RDMA-wrote it before sending the request); the
 *             server updates resident cache blocks and commits to
 *             disk *before* completing (section 5.2).
 * Completion: a Response send (consumes a client receive descriptor;
 *             interrupt-capable) or an RDMA flag write the client
 *             polls (cDSA).
 *
 * The server also implements the exactly-once filter for DSA's
 * request-level retransmission: completed sequence numbers are
 * remembered per connection until the client's piggybacked ack
 * watermark passes them.
 *
 * Node failure (vi::NodeFaultTarget): crash() models a fail-stop
 * node — the NIC port goes down on the fabric, every connection is
 * torn down, their NIC registrations are released, and the volatile
 * block cache is dropped; disks (persistent) survive. restart()
 * brings the node back cold and re-listening on the same port;
 * clients reconnect and dsa::MirroredDevice resyncs what the node
 * missed. This extends the paper's reliability story (§2.2 — DSA
 * adds "flow control, retransmission and reconnection") from link
 * faults to whole-node faults, the failure class a storage *cluster*
 * (§1) must survive.
 */

#ifndef V3SIM_STORAGE_V3_SERVER_HH
#define V3SIM_STORAGE_V3_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "dsa/protocol.hh"
#include "net/fabric.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/storage_node.hh"
#include "util/seq_window.hh"
#include "vi/fault_injector.hh"
#include "vi/vi_nic.hh"

namespace v3sim::storage
{

/** Static configuration of one V3 storage node: the shared node
 *  fields plus the VI front end's request credits. Every connection
 *  is also granted the write-staging area of dsa/protocol.hh
 *  (dsa::kStagingSlots slots of dsa::kStagingSlotBytes). */
struct V3ServerConfig : StorageNodeConfig
{
    V3ServerConfig() : StorageNodeConfig("v3", sim::usecs(0.04)) {}

    /** Outstanding-request credits granted per client connection
     *  (matches posted receive descriptors — DSA flow control). */
    uint32_t request_credits = 64;
};

/** One V3 storage node. */
class V3Server : public StorageNode, public vi::NodeFaultTarget
{
  public:
    V3Server(sim::Simulation &sim, net::Fabric &fabric,
             V3ServerConfig config);

    vi::ViNic &nic() { return *nic_; }
    const V3ServerConfig &config() const { return config_; }

    /**
     * Fail-stop crash: the NIC port leaves the fabric (in-flight
     * packets to/from it vanish), every connection dies silently —
     * peers find out via retransmission timeouts, as with a real
     * crash — their NIC registrations are released, and the volatile
     * cache is dropped. Disk contents persist. Idempotent.
     */
    void crash() override;

    /**
     * Cold restart: the port comes back up and the accept handler
     * (armed since construction) admits fresh connections. The cache
     * starts empty; clients must reconnect and replay. Idempotent.
     */
    void restart() override;

    /** True while crashed (between crash() and restart()). */
    bool crashed() const { return crashed_; }

    /**
     * Incarnation counter: bumped on every restart(). A failure
     * detector that only samples crashed() can miss a crash-and-
     * restart that fits entirely between two probes; comparing boot
     * epochs across probes catches the bounce (the cache was lost
     * even though the node looks continuously up).
     */
    uint64_t bootEpoch() const { return boot_epoch_; }

    /** @name Statistics (beyond StorageNode's) @{ */
    uint64_t retransmitHits() const { return retransmit_hits_.value(); }
    /** Sequences the retransmission filters hold, over every
     *  connection (bounded by the clients' ack watermarks). */
    size_t dedupEntries() const;
    uint64_t crashCount() const { return crashes_.value(); }
    uint64_t restartCount() const { return restarts_.value(); }

    /** Request messages dropped because they arrived damaged. */
    uint64_t badRequestCount() const { return bad_requests_.value(); }
    /** @} */

  private:
    /** Per-client connection state (the request manager instance). */
    struct Connection
    {
        uint32_t id = 0;
        vi::ViEndpoint *ep = nullptr;
        /** Send CQ is deliberately absent: the server never needs
         *  local send completions, and an undrained CQ would grow
         *  without bound over long runs. */
        std::unique_ptr<vi::CompletionQueue> recv_cq;

        /** Request receive buffers, one per credit. */
        sim::Addr req_buf_base = sim::kNullAddr;
        vi::MemHandle req_buf_handle;

        /** Reply/flag scratch buffers. */
        sim::Addr reply_buf = sim::kNullAddr;
        vi::MemHandle reply_handle;
        sim::Addr flag_scratch = sim::kNullAddr;
        vi::MemHandle flag_handle;

        /** Write-staging area granted to this client. */
        sim::Addr staging_base = sim::kNullAddr;
        vi::MemHandle staging_handle;

        /** Retransmission filter: seq -> completed ok/in-progress,
         *  from the client's ack watermark up. */
        enum class SeqState : uint8_t { InProgress, DoneOk, DoneFail };
        util::SeqWindow<SeqState> seqs;
        /** Staging slots whose latest inbound RDMA transfer carried a
         *  damaged fragment (set by the NIC's RdmaEvent observer,
         *  consumed by doWrite). This is how phantom-memory runs —
         *  where there are no bytes to CRC — detect payload damage;
         *  in real-memory runs the digest check finds it too. */
        std::unordered_set<uint32_t> staging_tainted;
        bool alive = true;
        /** NIC registrations already returned (releaseConnection). */
        bool released = false;
    };

    /** Accept hook: allocates a Connection and its endpoint. */
    vi::ViEndpoint *accept(net::PortId remote_port,
                           vi::EndpointId remote_ep);

    /** Drains one connection's receive CQ forever. */
    sim::Task<> serviceLoop(Connection &conn);

    /** Returns a dead connection's NIC registrations (idempotent).
     *  The buffers themselves are kept: in-flight handler coroutines
     *  may still read staging/reply memory while unwinding. */
    void releaseConnection(Connection &conn);

    /** Dispatches one request message. */
    sim::Task<> handleRequest(Connection &conn, dsa::RequestMsg req,
                              uint64_t recv_cookie);

    sim::Task<> handleHello(Connection &conn,
                            const dsa::RequestMsg &req,
                            osmodel::CpuLease lease);

    /** Read data path: gathers the range through the block path and
     *  RDMAs it, accumulating the response payload digest over the
     *  RDMA'd pieces into @p digest / @p digest_valid. */
    sim::Task<dsa::IoStatus> doRead(Connection &conn,
                                    const dsa::RequestMsg &req,
                                    osmodel::CpuLease &lease,
                                    uint32_t &digest,
                                    bool &digest_valid);

    /** Write data path. Checks the staged payload's digest / taint
     *  before the cache or the disk sees it. */
    sim::Task<dsa::IoStatus> doWrite(Connection &conn,
                                     const dsa::RequestMsg &req,
                                     osmodel::CpuLease &lease);

    /** Sends the completion (message or RDMA flag). The digest pair
     *  covers the read data already RDMA'd to the client (Message
     *  mode only; RdmaFlag clients detect damage via taint). */
    void postCompletion(Connection &conn, const dsa::RequestMsg &req,
                        dsa::IoStatus status,
                        uint32_t payload_digest = 0,
                        bool digest_valid = false);

    /** NIC observer: maps damaged inbound RDMA fragments onto the
     *  staging slot they landed in. */
    void onRdmaEvent(const vi::ViNic::RdmaEvent &event);

    /** Re-posts the request receive buffer (returns the credit). */
    void repostRecv(Connection &conn, uint64_t cookie);

    net::Fabric &fabric_;
    V3ServerConfig config_;
    std::unique_ptr<vi::ViNic> nic_;
    vi::MemHandle cache_handle_;

    std::vector<std::unique_ptr<Connection>> connections_;
    bool crashed_ = false;
    uint64_t boot_epoch_ = 0;

    sim::CounterHandle retransmit_hits_;
    sim::CounterHandle crashes_;
    sim::CounterHandle restarts_;
    sim::CounterHandle bad_requests_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_V3_SERVER_HH
