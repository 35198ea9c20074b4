/**
 * @file
 * VI NIC and endpoint model.
 *
 * A ViNic owns one fabric port, one memory registry (translation
 * table), and a set of endpoints (VIs). It implements the VI
 * architecture behaviours the paper's systems depend on:
 *
 *  - connection-oriented endpoints with an explicit handshake
 *    (ConnectReq / ConnectAck over the wire) and disconnect;
 *  - pre-posted receive descriptors; an incoming send that finds no
 *    posted receive is a *receive overrun* and breaks the connection
 *    — the failure DSA's flow control exists to prevent;
 *  - RDMA write, optionally with a 32-bit immediate. Plain RDMA
 *    writes touch remote memory without consuming a receive
 *    descriptor or generating a remote completion — the mechanism
 *    behind cDSA's polled completion flags;
 *  - fragmentation of transfers into cLan-sized packets (64K - 64
 *    bytes) with per-packet NIC processing;
 *  - memory protection: sends must reference locally registered
 *    buffers, RDMA targets must be registered at the remote NIC, and
 *    violations error the connection;
 *  - completion queues with poll or one-shot interrupt notification;
 *  - fire-and-forget sends and RDMA writes: no local send completion,
 *    since DSA learns that an I/O finished from the server's reply or
 *    its RDMA completion flag, never from the send (sections 2.2, 3.2).
 *
 * Host CPU costs (doorbells, kernel transitions, interrupt handling)
 * are charged by the layers above; the NIC model only spends NIC and
 * wire time. Data is really copied between the two hosts' memory
 * spaces unless those are phantom.
 */

#ifndef V3SIM_VI_VI_NIC_HH
#define V3SIM_VI_VI_NIC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fabric.hh"
#include "sim/memory.hh"
#include "sim/resource.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "vi/completion_queue.hh"
#include "vi/memory_registry.hh"
#include "vi/vi_costs.hh"
#include "vi/vi_types.hh"

namespace v3sim::vi
{

class ViNic;

/**
 * One VI: a connection with a receive work queue; sends go straight
 * to the NIC. Created via ViNic::createEndpoint and operated through
 * the owning NIC.
 */
class ViEndpoint
{
  public:
    using StateHandler = std::function<void(EndpointState)>;

    EndpointId id() const { return id_; }
    EndpointState state() const { return state_; }
    ViNic &nic() { return *nic_; }

    EndpointId remoteEndpoint() const { return remote_ep_; }

    /** Receive descriptors currently posted and unconsumed. */
    size_t postedRecvCount() const { return recv_queue_.size(); }


    /** Observer for connection state changes (connected, error). */
    void
    setStateHandler(StateHandler handler)
    {
        state_handler_ = std::move(handler);
    }

  private:
    friend class ViNic;

    ViEndpoint(ViNic *nic, EndpointId id, CompletionQueue *recv_cq)
        : nic_(nic), id_(id), recv_cq_(recv_cq)
    {}

    void setState(EndpointState next);

    ViNic *nic_;
    EndpointId id_;
    CompletionQueue *recv_cq_;
    EndpointState state_ = EndpointState::Idle;
    net::PortId remote_port_ = net::kInvalidPort;
    EndpointId remote_ep_ = kInvalidEndpoint;
    StateHandler state_handler_;

    std::deque<WorkDescriptor> recv_queue_;

    /** Reassembly of the in-flight inbound send, if any. */
    struct InboundSend
    {
        WorkDescriptor desc;
        uint64_t received = 0;
        bool active = false;
        /** Any fragment so far arrived damaged. */
        bool corrupted = false;
    };
    InboundSend inbound_;
};

/** The NIC: fabric port + translation table + endpoints. */
class ViNic
{
  public:
    /**
     * @param memory the owning host's memory space (DMA target).
     * @param reg_region_entries translation-table region size used
     *        for batched deregistration.
     */
    ViNic(sim::Simulation &sim, net::Fabric &fabric,
          sim::MemorySpace &memory, std::string name,
          ViCosts costs = {}, uint32_t reg_region_entries = 1000);

    ViNic(const ViNic &) = delete;
    ViNic &operator=(const ViNic &) = delete;

    const std::string &name() const { return name_; }
    net::PortId port() const { return port_; }
    const ViCosts &costs() const { return costs_; }
    MemoryRegistry &registry() { return registry_; }
    sim::MemorySpace &memory() { return memory_; }

    /** Creates an endpoint whose receive completions land on
     *  @p recv_cq (nullptr: nowhere). */
    ViEndpoint &createEndpoint(CompletionQueue *recv_cq);

    ViEndpoint *endpoint(EndpointId id);

    /**
     * Server side: decides whether to accept an incoming connection.
     * Return the local endpoint to bind, or nullptr to refuse. The
     * endpoint must be Idle.
     */
    using AcceptHandler =
        std::function<ViEndpoint *(net::PortId remote_port,
                                   EndpointId remote_ep)>;

    void setAcceptHandler(AcceptHandler handler)
    {
        accept_handler_ = std::move(handler);
    }

    /**
     * Client side: starts the connection handshake towards
     * @p remote_port. The endpoint's state handler fires with
     * Connected or Error when the handshake resolves.
     */
    void connect(ViEndpoint &ep, net::PortId remote_port);

    /** Graceful disconnect; notifies the peer. */
    void disconnect(ViEndpoint &ep);

    /**
     * Fault injection: drops the connection as a link/NIC failure
     * would — no notification reaches the peer; local posted work is
     * flushed and the state handler sees Error.
     */
    void breakConnection(ViEndpoint &ep);

    /** One inbound RDMA fragment that landed in this host's memory. */
    struct RdmaEvent
    {
        sim::Addr addr = sim::kNullAddr; ///< where it landed
        uint64_t len = 0;                ///< fragment bytes
        bool last = true;                ///< last fragment of transfer
        bool corrupted = false;          ///< damaged in flight
        uint64_t meta = 0; ///< sender's WorkDescriptor::meta sidecar
    };

    /**
     * Observer invoked whenever an inbound RDMA write lands in this
     * host's memory (once per fragment). cDSA uses it to implement
     * polled completion flags in a way that also works with phantom
     * memory: the poller's flag state is updated by the observer
     * rather than by re-reading bytes. The integrity layer uses the
     * per-fragment corrupted bit to taint client buffers and server
     * staging slots touched by damaged RDMA traffic.
     */
    using RdmaObserver = std::function<void(const RdmaEvent &)>;

    void setRdmaObserver(RdmaObserver observer)
    {
        rdma_observer_ = std::move(observer);
    }

    /**
     * Fault injection: damages the next @p count inbound RDMA write
     * fragments as they DMA into this host's memory — modelling a bad
     * NIC receive buffer or DMA engine, the corruption class the link
     * CRC cannot see at all because it happens after the CRC check.
     */
    void corruptNextRdma(int count) { corrupt_next_rdma_ += count; }

    /**
     * Posts a receive descriptor. The buffer must be registered.
     * @return false (nothing posted) on validation failure.
     */
    bool postRecv(ViEndpoint &ep, const WorkDescriptor &desc,
                  MemHandle handle);

    /**
     * Posts a send and fragments it onto the wire. Fire-and-forget:
     * nothing completes locally, and a lost message shows only as a
     * missing reply. @return false on validation failure.
     */
    bool postSend(ViEndpoint &ep, const WorkDescriptor &desc,
                  MemHandle handle);

    /**
     * Posts an RDMA write into the peer's memory. The local buffer
     * must be registered here; the target range must be registered
     * at the peer, else the peer errors the connection. Like
     * postSend, nothing completes locally.
     */
    bool postRdmaWrite(ViEndpoint &ep, const WorkDescriptor &desc,
                       MemHandle handle);

    /** @name Statistics @{ */
    uint64_t packetsSent() const { return packets_sent_.value(); }
    uint64_t packetsReceived() const { return packets_received_.value(); }
    uint64_t recvOverruns() const { return recv_overruns_.value(); }
    uint64_t protectionErrors() const
    {
        return protection_errors_.value();
    }
    /** @} */

  private:
    /** Wire message carried as the fabric payload. */
    struct WireMsg
    {
        enum class Kind : uint8_t
        {
            ConnectReq,
            ConnectAck,
            ConnectRefuse,
            Disconnect,
            Send,
            Rdma,
        };

        Kind kind = Kind::Send;
        EndpointId src_ep = kInvalidEndpoint;
        EndpointId dst_ep = kInvalidEndpoint;
        uint64_t offset = 0;
        uint64_t frag_len = 0;
        uint64_t total_len = 0;
        bool last = true;
        sim::Addr remote_addr = sim::kNullAddr; // RDMA target
        bool has_immediate = false;
        uint32_t immediate = 0;
        uint64_t meta = 0; // WorkDescriptor::meta sidecar
        bool corrupted = false; // damaged in flight (fault injection)
        std::vector<uint8_t> data; // empty when memory is phantom
        std::shared_ptr<void> control; // protocol sidecar
    };

    /** Fragments and transmits a send/RDMA descriptor. */
    void transmit(ViEndpoint &ep, const WorkDescriptor &desc,
                  WireMsg::Kind kind);

    /** Sends a small control message (connect/disconnect family). */
    void sendControl(net::PortId dst, WireMsg msg);

    /** Queues @p packet on the transmit engine, then the fabric. */
    void toWire(net::Packet packet);

    void onPacket(net::Packet packet);

    /** Marks @p msg corrupted and, when it carries real bytes, flips
     *  one of them so software-visible data actually differs. */
    void applyCorruption(WireMsg &msg);

    void handleControl(net::PortId src_port, const WireMsg &msg);
    void handleSendMsg(const WireMsg &msg);
    void handleRdmaMsg(const WireMsg &msg);

    /** Errors the connection and flushes posted receives. */
    void failEndpoint(ViEndpoint &ep, WorkStatus reason,
                      bool notify_peer);

    sim::Simulation &sim_;
    net::Fabric &fabric_;
    sim::MemorySpace &memory_;
    std::string name_;
    ViCosts costs_;
    MemoryRegistry registry_;
    net::PortId port_;
    /** Serializes per-packet NIC receive processing. */
    sim::ServerPool rx_engine_;
    /** Serializes per-packet NIC transmit processing. */
    sim::ServerPool tx_engine_;

    std::vector<std::unique_ptr<ViEndpoint>> endpoints_;
    AcceptHandler accept_handler_;
    RdmaObserver rdma_observer_;

    /** Pending corruptNextRdma() injections. */
    int corrupt_next_rdma_ = 0;

    /// Registry path prefix ("nic.<name>", uniquified); must precede
    /// the metric references so it is initialised first.
    std::string metric_prefix_;

    sim::CounterHandle packets_sent_;
    sim::CounterHandle packets_received_;
    sim::CounterHandle recv_overruns_;
    sim::CounterHandle protection_errors_;
    sim::CounterHandle packets_corrupted_;
};

} // namespace v3sim::vi

#endif // V3SIM_VI_VI_NIC_HH
