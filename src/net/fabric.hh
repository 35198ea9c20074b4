/**
 * @file
 * Point-to-point system-area-network fabric model.
 *
 * Models a Giganet-class switched SAN at the level the paper's
 * results depend on: per-port transmit serialization at link
 * bandwidth, a fixed propagation/switching delay, and in-order
 * delivery per (src, dst) pair. Receive-side contention is not
 * modelled because every experimental configuration in the paper
 * pairs one client NIC with one storage-node NIC (8 cLan NICs to 8
 * V3 nodes in the large setup); the VI layer on top adds NIC
 * processing costs and enforces the cLan 64K-64-byte maximum packet
 * size by fragmenting transfers.
 *
 * Payloads are opaque shared pointers: the fabric moves simulation
 * objects, while the modelled *wire size* is carried separately so
 * control headers and RDMA data can weigh what the real wire would.
 *
 * A drop filter supports fault injection (lost packets, severed
 * links) used to exercise DSA retransmission and reconnection. Ports
 * can additionally be marked down (setPortUp), modelling a whole
 * node/NIC leaving the fabric: packets to or from a down port vanish
 * silently, including packets already in flight towards it — exactly
 * what a powered-off node looks like to its peers.
 */

#ifndef V3SIM_NET_FABRIC_HH
#define V3SIM_NET_FABRIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace v3sim::net
{

/** Identifies an attached port (NIC) on the fabric. */
using PortId = uint32_t;

constexpr PortId kInvalidPort = UINT32_MAX;

/** One message in flight: routing metadata plus an opaque payload.
 *  40 bytes: the per-packet callbacks of ViNic::transmit and
 *  Fabric::send capture one beside a `std::function`, and
 *  static_assert that the pair still fits EventFn's inline buffer. */
struct Packet
{
    PortId src = kInvalidPort;
    PortId dst = kInvalidPort;
    /** Bytes on the wire: one VI fragment (at most the cLan's 64 KiB
     *  packet) or one TCP segment, plus headers. */
    uint32_t wire_bytes = 0;
    /**
     * Fault injection: the packet's payload was damaged in flight.
     * The fabric delivers it anyway — the link-level CRC that would
     * catch a clean wire flip is a hop-local defence, and the
     * corruption classes the integrity work targets (bad NIC
     * buffers, DMA errors) get past it — so the receiving NIC model
     * applies the damage and end-to-end digests must detect it.
     */
    bool corrupted = false;
    /**
     * Determinism arbitration key (DESIGN.md §8.3): orders this
     * packet against others submitted to the same transmit queue on
     * the same tick. Senders derive it from message content (request
     * offset, transfer tag), never from arrival order; equal keys
     * keep submission order, so fragments of one transfer stay
     * sequential.
     */
    uint64_t order_key = 0;
    std::shared_ptr<void> payload;
};

/** Static fabric parameters. */
struct FabricConfig
{
    /** Link bandwidth in bytes/second. Giganet cLan end-to-end user
     *  bandwidth is ~110 MB/s (paper section 4). */
    double bandwidth_bps = 110e6;

    /** Fixed propagation + switch latency per packet. Chosen so that
     *  a 64-byte message plus VI send/receive processing lands at the
     *  paper's 7 us one-way figure. */
    sim::Tick propagation = sim::usecs(2);
};

/**
 * The switched fabric. Attach ports, then send packets between them.
 * Delivery calls the destination port's handler after transmit
 * serialization and propagation.
 */
class Fabric
{
  public:
    using Handler = std::function<void(Packet)>;

    /** Returns true to drop the packet (fault injection hook). */
    using DropFilter = std::function<bool(const Packet &)>;

    /** Returns true to corrupt the packet's payload in flight
     *  (fault injection hook; see Packet::corrupted). */
    using CorruptFilter = std::function<bool(const Packet &)>;

    Fabric(sim::EventQueue &queue, FabricConfig config = {});

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** Attaches a port; @p handler receives delivered packets. */
    PortId attach(Handler handler, std::string name = "");

    /**
     * Sends @p packet.wire_bytes from packet.src to packet.dst.
     * The source port's transmitter serializes packets FIFO at link
     * bandwidth; delivery occurs one propagation delay later.
     * Sending to a detached or invalid port drops the packet.
     *
     * @param on_wire optional; fires when the packet has finished
     *        serializing onto the link (the moment a NIC would
     *        retire the send descriptor). Fires even for packets the
     *        drop filter will discard (the sender cannot tell).
     */
    void send(Packet packet, std::function<void()> on_wire = {});

    /** Installs (or clears, with nullptr) the drop filter. */
    void setDropFilter(DropFilter filter) { drop_filter_ = std::move(filter); }

    /** Installs (or clears, with nullptr) the corrupt filter. It is
     *  consulted only for packets that are not dropped. */
    void
    setCorruptFilter(CorruptFilter filter)
    {
        corrupt_filter_ = std::move(filter);
    }

    /**
     * Marks a port down (node crash) or back up (restart). While a
     * port is down every packet to or from it is dropped silently —
     * peers get no notification, matching a real node failure. Down
     * ports also swallow packets that were already propagating
     * towards them when the port went down.
     */
    void setPortUp(PortId id, bool up);

    const FabricConfig &config() const { return config_; }

    const std::string &portName(PortId id) const;

    /** Bytes handed to the wire by @p port (excludes dropped). */
    uint64_t bytesSent(PortId port) const;

    /** Packets delivered to @p port. */
    uint64_t packetsDelivered(PortId port) const;

    /** Packets removed by the drop filter. */
    uint64_t packetsDropped() const { return dropped_.value(); }

  private:
    struct PortState
    {
        Handler handler;
        std::string name;
        std::unique_ptr<sim::ServerPool> tx;
        bool up = true;
        sim::Counter bytes_sent;
        sim::Counter delivered;
    };

    void deliver(Packet packet);

    sim::EventQueue &queue_;
    FabricConfig config_;
    std::vector<std::unique_ptr<PortState>> ports_;
    DropFilter drop_filter_;
    CorruptFilter corrupt_filter_;
    sim::Counter dropped_;
};

} // namespace v3sim::net

#endif // V3SIM_NET_FABRIC_HH
