/**
 * @file
 * Reliable byte-stream transport over the SAN fabric — the TCP model
 * under the iSCSI rival backend (DESIGN.md §11).
 *
 * Models the pieces of paper-era TCP that determine host overhead and
 * loss recovery, at message granularity:
 *
 *  - MSS segmentation: a message becomes ceil(bytes / mss) segments,
 *    each a fabric Packet of payload + header_bytes on the wire;
 *    messages never share a segment (the sender pushes at PDU
 *    boundaries, as an iSCSI initiator/target would).
 *  - Cumulative acknowledgement with segment-granularity sequence
 *    numbers, delayed ACKs (one per ack_every data segments, plus an
 *    immediate ACK on every message-final segment — so no delayed-ACK
 *    timer is needed: the push at a PDU boundary always forces one).
 *  - Go-back-N loss recovery: out-of-order segments are discarded and
 *    answered with an immediate duplicate ACK; dupack_threshold
 *    duplicates trigger fast retransmit, a quiet retransmission
 *    timeout (RTO) does the rest. Both resend from the first unacked
 *    segment (Tahoe-style).
 *  - Slow start / congestion avoidance: cwnd doubles per RTT below
 *    ssthresh, then grows one segment per RTT; any loss signal halves
 *    ssthresh and collapses cwnd to initial_cwnd.
 *
 * Losses are never generated here: segments are dropped or damaged
 * only by the fabric's fault filters (vi::FaultInjector). The stream
 * itself consumes no randomness at all, so a fault-free run leaves
 * every RNG stream untouched and stays bit-identical with or without
 * this transport in the process (the determinism contract, §8).
 * Damaged packets are *delivered* by the fabric with a taint bit; an
 * accepted tainted segment taints the whole reassembled message, and
 * it is the iSCSI digests above — not the modeled Internet checksum —
 * that must catch it, mirroring the real-world argument for RFC 3720
 * digests.
 *
 * CPU is never charged here either (net/ cannot see osmodel/): the
 * stream only *counts* work. A caller that models host cost installs
 * an rx-notify hook (setRxNotify + armRx, the same one-shot arming
 * discipline as a VI completion queue) and drains packets itself via
 * processOnePacket(), which returns the segment/byte/ACK tallies to
 * convert into HostCosts charges. With no hook installed, packets are
 * processed inline on delivery — convenient for transport-only tests.
 *
 * Deliberate simplifications, documented here so the model's edges
 * are explicit: one connection per stream (every paper configuration
 * pairs one initiator with one target port); the handshake is not
 * retransmitted (connect before arming faults); the base RTO is a
 * fixed TcpConfig::rto rather than an SRTT estimate (SAN round trips are
 * tens of microseconds and near-constant, so an estimator would
 * converge to a constant anyway — the real 200 ms minimum RTO would
 * only inflate recovery latency without changing host-overhead
 * results), though back-to-back timeouts do apply the standard
 * binary exponential backoff, doubling the timeout up to
 * TcpConfig::max_rto and resetting on the next new cumulative ACK (RFC
 * 6298 §5.5-5.7) — without it, sustained overload degenerates into a
 * constant-rate retransmit storm; and timer-driven retransmits
 * charge no CPU (they exist only under injected faults or overload,
 * where recovery latency, not overhead, is the measured quantity).
 */

#ifndef V3SIM_NET_TCP_STREAM_HH
#define V3SIM_NET_TCP_STREAM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace v3sim::net
{

/** TCP parameters, the same for every connection. */
struct TcpConfig
{
    /** Maximum segment size (payload bytes per segment). The
     *  Ethernet-era default; iSCSI PDUs larger than this fragment. */
    static constexpr uint32_t mss = 1460;

    /** Wire overhead per data segment (Ethernet + IP + TCP headers,
     *  14+20+20 plus preamble/FCS rounded). */
    static constexpr uint32_t header_bytes = 58;

    /** Wire size of a pure ACK segment. */
    static constexpr uint32_t ack_wire_bytes = 58;

    /** Initial congestion window, in segments (RFC 2581). */
    static constexpr uint32_t initial_cwnd = 2;

    /** Initial slow-start threshold, in segments. */
    static constexpr uint32_t initial_ssthresh = 64;

    /** Flow-control clamp: cwnd never exceeds this many segments
     *  (models the peer's advertised receive window). */
    static constexpr uint32_t max_window = 256;

    /** Base retransmission timeout (see file comment for why it is
     *  not an SRTT estimator). */
    static constexpr sim::Tick rto = sim::msecs(2);

    /** Backoff ceiling: back-to-back timeouts double the effective
     *  RTO from rto up to this cap; a new cumulative ACK
     *  resets it to the base value. */
    static constexpr sim::Tick max_rto = sim::msecs(64);

    /** Duplicate ACKs that trigger fast retransmit. */
    static constexpr uint32_t dupack_threshold = 3;

    /** Delayed-ACK ratio: one cumulative ACK per this many in-order
     *  data segments (message-final segments always ACK at once). */
    static constexpr uint32_t ack_every = 2;
};

/** One application message (an iSCSI PDU): a modeled size, an opaque
 *  payload pointer, and the in-flight damage taint accumulated over
 *  the segments that carried it. */
struct TcpMessage
{
    uint64_t bytes = 0;
    bool tainted = false;
    std::shared_ptr<void> payload;
    /** Same-tick send arbitration key (DESIGN.md §8.3). TCP sequence
     *  numbers freeze message order into the byte stream, so two
     *  coroutines calling sendMessage() on the same tick are a race;
     *  messages gather over the tick and are sequenced in one
     *  final-band pass ordered by this key (content — a buffer
     *  address, a transfer tag — never arrival order), then by
     *  submission for equal keys. */
    uint64_t order_key = 0;
};

/**
 * One endpoint of a TCP connection over the fabric. Construct two,
 * listen() on one, co_await connect(peer.port()) on the other, then
 * exchange messages.
 */
class TcpStream
{
  public:
    using MessageHandler = std::function<void(TcpMessage)>;

    /** Work performed by one processOnePacket() call, for the caller
     *  to convert into host CPU charges. */
    struct Work
    {
        /** In-order data segments accepted. */
        uint32_t data_segs = 0;
        /** Payload bytes in those segments (kernel->user copy and
         *  checksum work). */
        uint64_t data_bytes = 0;
        /** ACK segments processed (pure protocol work). */
        uint32_t ack_segs = 0;
        /** ACK segments this endpoint transmitted in response. */
        uint32_t acks_sent = 0;
        /** New or retransmitted data segments pumped out because the
         *  packet opened the window. */
        uint32_t segs_sent = 0;
        /** Messages fully reassembled and handed to the handler. */
        uint32_t msgs_delivered = 0;
    };

    /**
     * Attaches a port named @p name to @p fabric and registers
     * counters under @p metric_prefix (e.g. "iscsi.init.tcp").
     */
    TcpStream(sim::EventQueue &queue, Fabric &fabric,
              sim::MetricRegistry &metrics, std::string metric_prefix,
              std::string name);

    TcpStream(const TcpStream &) = delete;
    TcpStream &operator=(const TcpStream &) = delete;

    /** This endpoint's fabric port. */
    PortId port() const { return port_; }

    /** Passive open: adopt the first SYN that arrives. */
    void listen();

    /** Active open: handshake with a listening peer. Must complete
     *  before faults are armed (the handshake is not retransmitted). */
    sim::Task<> connect(PortId remote);

    bool connected() const { return connected_; }

    /** Installs the reassembled-message callback. */
    void setMessageHandler(MessageHandler handler)
    {
        on_message_ = std::move(handler);
    }

    /**
     * Queues @p message for transmission. Messages sent on the same
     * tick are sequenced in the tick's final band ordered by
     * TcpMessage::order_key (see there); segments then pump out up to
     * the congestion window, the rest following as ACKs open it.
     * Reliable: delivery is retried until acked.
     */
    void sendMessage(TcpMessage message);

    /** Segments a message of @p bytes will occupy (for tx-side cost
     *  accounting by the caller). */
    uint64_t segmentCount(uint64_t bytes) const
    {
        return (bytes + TcpConfig::mss - 1) / TcpConfig::mss;
    }

    /** @name Deferred receive processing
     * Cost-modeling callers take delivery in two phases, like a NIC
     * raising an interrupt: @p fn fires once when a packet arrives
     * while armed (one-shot — re-arm with armRx() after draining);
     * processOnePacket() then consumes one queued packet and reports
     * the work done. Without a notify hook, packets process inline.
     * @{ */
    void setRxNotify(std::function<void()> fn)
    {
        rx_notify_ = std::move(fn);
    }

    void armRx();

    bool rxPending() const { return !rx_queue_.empty(); }

    Work processOnePacket();
    /** @} */

    /** @name Introspection (tests, cost accounting) @{ */
    uint32_t ssthresh() const { return ssthresh_; }
    uint64_t sndUna() const { return snd_una_; }
    uint64_t sndNxt() const { return snd_nxt_; }
    uint64_t retransmitCount() const { return retransmits_.value(); }
    /** Effective RTO the next armed timer will use (base RTO doubled
     *  per back-to-back timeout, capped at max_rto). */
    sim::Tick currentRto() const;
    uint64_t acksSent() const { return acks_tx_.value(); }
    /** @} */

  private:
    /** Control header modeled on every packet (the payload pointer
     *  rides on the message-first segment only). */
    struct Seg
    {
        enum class Kind : uint8_t { Syn, SynAck, Data, Ack };
        Kind kind = Kind::Data;
        uint64_t seq = 0;       ///< Data: segment sequence number.
        uint64_t ack = 0;       ///< Ack: next expected sequence.
        uint32_t payload_bytes = 0;
        bool msg_first = false;
        bool msg_last = false;
        uint64_t msg_bytes = 0; ///< Valid when msg_first.
        std::shared_ptr<void> msg_payload; ///< Valid when msg_first.
    };

    /** An unacked or not-yet-sent message on the transmit side. */
    struct TxMsg
    {
        uint64_t start_seq = 0;
        uint64_t seg_count = 0;
        uint64_t bytes = 0;
        std::shared_ptr<void> payload;
    };

    void onPacket(Packet packet);
    void flushStaged();
    void handlePacket(const Packet &packet, Work &work);
    void handleData(const Seg &seg, bool wire_tainted, Work &work);
    void handleAck(const Seg &seg, Work &work);
    void sendSegment(uint64_t seq, Work *work);
    void sendAck(Work *work);
    void sendControl(Seg::Kind kind);
    void pump(Work *work);
    void onLossSignal();
    void armRto();
    void onRto();
    const TxMsg &msgForSeq(uint64_t seq) const;

    sim::EventQueue &queue_;
    Fabric &fabric_;
    std::string metric_prefix_;

    PortId port_ = kInvalidPort;
    PortId peer_ = kInvalidPort;
    bool listening_ = false;
    bool connected_ = false;
    sim::Completion<> connect_done_;

    // Transmit state (segment-granularity sequence space).
    /** Same-tick sendMessage() calls awaiting the final-band
     *  sequencing pass (sorted by order_key there). */
    std::vector<TcpMessage> tx_staged_;
    bool tx_flush_scheduled_ = false;
    std::deque<TxMsg> tx_msgs_;
    uint64_t tx_next_seq_ = 0; ///< First seq past the queued messages.
    uint64_t snd_una_ = 0;
    uint64_t snd_nxt_ = 0;
    uint64_t max_sent_ = 0;    ///< Highest seq ever transmitted + 1.
    uint32_t cwnd_ = TcpConfig::initial_cwnd;
    uint32_t ssthresh_ = TcpConfig::initial_ssthresh;
    uint32_t cwnd_acc_ = 0;    ///< Congestion-avoidance accumulator.
    uint32_t dupacks_ = 0;
    /** Back-to-back timeout count since the last new cumulative ACK;
     *  each one doubles the effective RTO (capped at max_rto). */
    uint32_t rto_backoff_ = 0;
    sim::EventQueue::Handle rto_timer_;

    // Receive state.
    uint64_t rcv_nxt_ = 0;
    uint32_t unacked_segs_ = 0;
    uint64_t cur_msg_bytes_ = 0;
    uint64_t cur_msg_received_ = 0;
    bool cur_msg_tainted_ = false;
    std::shared_ptr<void> cur_msg_payload_;
    MessageHandler on_message_;

    // Deferred rx processing.
    std::deque<Packet> rx_queue_;
    std::function<void()> rx_notify_;
    bool rx_armed_ = false;

    sim::CounterHandle segs_tx_;
    sim::CounterHandle segs_rx_;
    sim::CounterHandle acks_tx_;
    sim::CounterHandle acks_rx_;
    sim::CounterHandle retransmits_;
    sim::CounterHandle bytes_tx_;
    sim::CounterHandle msgs_rx_;
};

} // namespace v3sim::net

#endif // V3SIM_NET_TCP_STREAM_HH
