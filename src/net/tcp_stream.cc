#include "net/tcp_stream.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace v3sim::net
{

TcpStream::TcpStream(sim::EventQueue &queue, Fabric &fabric,
                     sim::MetricRegistry &metrics,
                     std::string metric_prefix)
    : queue_(queue), fabric_(fabric),
      metric_prefix_(std::move(metric_prefix)),
      segs_tx_(metrics.counter(metric_prefix_ + ".segs_tx")),
      segs_rx_(metrics.counter(metric_prefix_ + ".segs_rx")),
      acks_tx_(metrics.counter(metric_prefix_ + ".acks_tx")),
      acks_rx_(metrics.counter(metric_prefix_ + ".acks_rx")),
      retransmits_(metrics.counter(metric_prefix_ + ".retransmits")),
      bytes_tx_(metrics.counter(metric_prefix_ + ".bytes_tx")),
      msgs_rx_(metrics.counter(metric_prefix_ + ".msgs_rx"))
{
    port_ = fabric_.attach(
        [this](Packet packet) { onPacket(std::move(packet)); });
}

void
TcpStream::listen()
{
    listening_ = true;
}

sim::Task<>
TcpStream::connect(PortId remote)
{
    assert(!connected_ && !listening_);
    peer_ = remote;
    sendControl(Seg::Kind::Syn);
    co_await connect_done_.wait();
}

void
TcpStream::sendMessage(TcpMessage message)
{
    assert(connected_ && message.bytes > 0);
    // Deferred to the tick's final band: sequence numbers freeze
    // message order into the byte stream, and same-tick senders
    // arrive in tie-shuffled order (DESIGN.md §8.3). Gathering the
    // tick's messages and sequencing them by order_key makes the
    // stream a function of the contender set. Zero simulated time
    // passes before the flush, so timing is unchanged.
    tx_staged_.push_back(std::move(message));
    if (!tx_flush_scheduled_) {
        tx_flush_scheduled_ = true;
        queue_.scheduleFinal([this] { flushStaged(); });
    }
}

void
TcpStream::flushStaged()
{
    // Cleared first: a handler resumed downstream may send again this
    // tick, scheduling a fresh (later) final-band batch.
    tx_flush_scheduled_ = false;
    std::vector<TcpMessage> batch = std::move(tx_staged_);
    tx_staged_.clear();
    // stable_sort: equal keys keep submission order, per the same
    // (order_key, submission) rule as ServerPool admission.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const TcpMessage &a, const TcpMessage &b) {
                         return a.order_key < b.order_key;
                     });
    for (TcpMessage &message : batch) {
        TxMsg msg;
        msg.start_seq = tx_next_seq_;
        msg.seg_count = segmentCount(message.bytes);
        msg.bytes = message.bytes;
        msg.payload = std::move(message.payload);
        tx_next_seq_ += msg.seg_count;
        tx_msgs_.push_back(std::move(msg));
    }
    pump(nullptr);
}

void
TcpStream::armRx()
{
    rx_armed_ = true;
    if (!rx_queue_.empty() && rx_notify_) {
        rx_armed_ = false;
        rx_notify_();
    }
}

TcpStream::Work
TcpStream::processOnePacket()
{
    assert(!rx_queue_.empty());
    Work work;
    Packet packet = std::move(rx_queue_.front());
    rx_queue_.pop_front();
    handlePacket(packet, work);
    return work;
}

void
TcpStream::onPacket(Packet packet)
{
    rx_queue_.push_back(std::move(packet));
    if (rx_notify_) {
        if (rx_armed_) {
            rx_armed_ = false;
            rx_notify_();
        }
        return;
    }
    // Transport-only mode: process inline on delivery. Handlers may
    // send, but fabric delivery is always via a scheduled event, so
    // this loop cannot re-enter.
    while (!rx_queue_.empty())
        processOnePacket();
}

void
TcpStream::handlePacket(const Packet &packet, Work &work)
{
    auto seg = std::static_pointer_cast<const Seg>(packet.payload);
    switch (seg->kind) {
    case Seg::Kind::Syn:
        // Adopt the first active opener; late SYNs are ignored (one
        // connection per stream).
        if (listening_ && peer_ == kInvalidPort) {
            peer_ = packet.src;
            connected_ = true;
            sendControl(Seg::Kind::SynAck);
        }
        break;
    case Seg::Kind::SynAck:
        if (!connected_) {
            connected_ = true;
            connect_done_.set();
        }
        break;
    case Seg::Kind::Data:
        handleData(*seg, packet.corrupted, work);
        break;
    case Seg::Kind::Ack:
        // Damage to a header-only segment is caught by the real TCP
        // checksum and behaves like a drop; taint is ignored here.
        handleAck(*seg, work);
        break;
    }
}

void
TcpStream::handleData(const Seg &seg, bool wire_tainted, Work &work)
{
    if (seg.seq != rcv_nxt_) {
        // Go-back-N: discard out-of-order (or duplicate) data and
        // answer with an immediate duplicate ACK for what we expect.
        sendAck(&work);
        return;
    }
    ++rcv_nxt_;
    segs_rx_.increment();
    ++work.data_segs;
    work.data_bytes += seg.payload_bytes;
    if (seg.msg_first) {
        cur_msg_bytes_ = seg.msg_bytes;
        cur_msg_payload_ = seg.msg_payload;
        cur_msg_tainted_ = false;
        cur_msg_received_ = 0;
    }
    cur_msg_tainted_ = cur_msg_tainted_ || wire_tainted;
    cur_msg_received_ += seg.payload_bytes;
    ++unacked_segs_;
    if (seg.msg_last) {
        assert(cur_msg_received_ == cur_msg_bytes_);
        TcpMessage message;
        message.bytes = cur_msg_bytes_;
        message.tainted = cur_msg_tainted_;
        message.payload = std::move(cur_msg_payload_);
        msgs_rx_.increment();
        ++work.msgs_delivered;
        sendAck(&work); // the PDU-boundary push forces an ACK
        if (on_message_)
            on_message_(std::move(message));
    } else if (unacked_segs_ >= TcpConfig::ack_every) {
        sendAck(&work);
    }
}

void
TcpStream::handleAck(const Seg &seg, Work &work)
{
    acks_rx_.increment();
    ++work.ack_segs;
    if (seg.ack > snd_una_) {
        uint64_t acked = seg.ack - snd_una_;
        snd_una_ = seg.ack;
        dupacks_ = 0;
        // Forward progress: the peer is alive, so back-to-back
        // timeout backoff (if any) resets to the base RTO.
        rto_backoff_ = 0;
        for (uint64_t i = 0; i < acked; ++i) {
            if (cwnd_ < ssthresh_) {
                ++cwnd_; // slow start: +1 per acked segment
            } else {
                // Congestion avoidance: +1 per window of ACKs,
                // tracked with an integer accumulator.
                if (++cwnd_acc_ >= cwnd_) {
                    cwnd_acc_ = 0;
                    ++cwnd_;
                }
            }
        }
        cwnd_ = std::min(cwnd_, TcpConfig::max_window);
        while (!tx_msgs_.empty() &&
               tx_msgs_.front().start_seq +
                       tx_msgs_.front().seg_count <=
                   snd_una_)
            tx_msgs_.pop_front();
        rto_timer_.cancel();
        pump(&work);
    } else if (seg.ack == snd_una_ && snd_una_ < snd_nxt_) {
        if (++dupacks_ >= TcpConfig::dupack_threshold) {
            dupacks_ = 0;
            onLossSignal();
            snd_nxt_ = snd_una_; // fast retransmit, Tahoe-style
            rto_timer_.cancel();
            pump(&work);
        }
    }
}

void
TcpStream::sendSegment(uint64_t seq, Work *work)
{
    const TxMsg &msg = msgForSeq(seq);
    uint64_t offset = seq - msg.start_seq;
    auto seg = std::make_shared<Seg>();
    seg->kind = Seg::Kind::Data;
    seg->seq = seq;
    seg->payload_bytes = static_cast<uint32_t>(std::min<uint64_t>(
        TcpConfig::mss, msg.bytes - offset * TcpConfig::mss));
    seg->msg_first = seq == msg.start_seq;
    seg->msg_last = seq == msg.start_seq + msg.seg_count - 1;
    if (seg->msg_first) {
        seg->msg_bytes = msg.bytes;
        seg->msg_payload = msg.payload;
    }
    const uint32_t wire = seg->payload_bytes + TcpConfig::header_bytes;
    if (seq < max_sent_)
        retransmits_.increment();
    else
        max_sent_ = seq + 1;
    segs_tx_.increment();
    bytes_tx_.increment(wire);
    if (work != nullptr)
        ++work->segs_sent;
    Packet packet;
    packet.src = port_;
    packet.dst = peer_;
    packet.wire_bytes = wire;
    packet.payload = std::move(seg);
    fabric_.send(std::move(packet));
}

void
TcpStream::sendAck(Work *work)
{
    unacked_segs_ = 0;
    auto seg = std::make_shared<Seg>();
    seg->kind = Seg::Kind::Ack;
    seg->ack = rcv_nxt_;
    acks_tx_.increment();
    if (work != nullptr)
        ++work->acks_sent;
    Packet packet;
    packet.src = port_;
    packet.dst = peer_;
    packet.wire_bytes = TcpConfig::ack_wire_bytes;
    packet.payload = std::move(seg);
    fabric_.send(std::move(packet));
}

void
TcpStream::sendControl(Seg::Kind kind)
{
    auto seg = std::make_shared<Seg>();
    seg->kind = kind;
    Packet packet;
    packet.src = port_;
    packet.dst = peer_;
    packet.wire_bytes = TcpConfig::header_bytes;
    packet.payload = std::move(seg);
    fabric_.send(std::move(packet));
}

void
TcpStream::pump(Work *work)
{
    uint64_t window =
        std::min<uint64_t>(cwnd_, TcpConfig::max_window);
    while (snd_nxt_ < tx_next_seq_ &&
           snd_nxt_ - snd_una_ < window) {
        sendSegment(snd_nxt_, work);
        ++snd_nxt_;
    }
    if (snd_una_ < snd_nxt_ && !rto_timer_.pending())
        armRto();
}

void
TcpStream::onLossSignal()
{
    uint64_t flight = snd_nxt_ - snd_una_;
    ssthresh_ = static_cast<uint32_t>(
        std::max<uint64_t>(flight / 2, 2));
    cwnd_ = TcpConfig::initial_cwnd;
    cwnd_acc_ = 0;
}

sim::Tick
TcpStream::currentRto() const
{
    // Binary exponential backoff, saturating at max_rto. The shift
    // count is bounded by the doubling guard in onRto(), so the shift
    // itself cannot overflow.
    return std::min(TcpConfig::rto << rto_backoff_, TcpConfig::max_rto);
}

void
TcpStream::armRto()
{
    rto_timer_ = queue_.scheduleCancelable(currentRto(),
                                           [this] { onRto(); });
}

void
TcpStream::onRto()
{
    if (snd_una_ >= snd_nxt_)
        return;
    // Each back-to-back timeout doubles the next timer (RFC 6298
    // §5.5-5.7); a new cumulative ACK in handleAck resets it.
    if (currentRto() < TcpConfig::max_rto)
        ++rto_backoff_;
    onLossSignal();
    dupacks_ = 0;
    snd_nxt_ = snd_una_;
    // Timer-driven recovery charges no host CPU: it only happens
    // under injected faults, where the measured quantity is recovery
    // latency, not overhead (see file comment in the header).
    pump(nullptr);
}

const TcpStream::TxMsg &
TcpStream::msgForSeq(uint64_t seq) const
{
    // Outstanding messages are bounded by the window, so the scan is
    // short; fully acked messages were popped in handleAck.
    for (const TxMsg &msg : tx_msgs_) {
        if (seq >= msg.start_seq && seq < msg.start_seq + msg.seg_count)
            return msg;
    }
    assert(false && "sequence outside queued messages");
    return tx_msgs_.front();
}

} // namespace v3sim::net
