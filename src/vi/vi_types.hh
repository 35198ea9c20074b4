/**
 * @file
 * Core VI architecture types: descriptors, completions, handles.
 *
 * Mirrors the Virtual Interface Architecture specification's model:
 * applications post work descriptors (send / receive / RDMA-write) on
 * per-VI work queues and consume completions from completion queues.
 * RDMA-write carries an optional 32-bit immediate; plain RDMA-write
 * is invisible to the remote CPU — the property cDSA exploits for
 * completion flags.
 */

#ifndef V3SIM_VI_VI_TYPES_HH
#define V3SIM_VI_VI_TYPES_HH

#include <cstdint>
#include <memory>

#include "sim/memory.hh"

namespace v3sim::vi
{

/** Endpoint (VI instance) identifier, unique per NIC. */
using EndpointId = uint32_t;

constexpr EndpointId kInvalidEndpoint = UINT32_MAX;

/** Registration handle returned by MemoryRegistry. */
struct MemHandle
{
    uint32_t slot = UINT32_MAX; ///< translation-table index
    uint64_t generation = 0;    ///< guards against stale handles

    bool valid() const { return slot != UINT32_MAX; }
};

/** Kinds of work a VI consumes. */
enum class WorkType : uint8_t
{
    Send,
    Recv,
    RdmaWrite,
};

/** Completion status. */
enum class WorkStatus : uint8_t
{
    Ok,
    /** Connection went away (fault injection / disconnect). */
    ConnectionError,
    /** Incoming send found no posted receive descriptor. */
    RecvOverrun,
    /** RDMA target was not registered at the remote NIC. */
    ProtectionError,
    /** Descriptor flushed because the endpoint was torn down. */
    Flushed,
};

/** A work request posted to a send or receive queue. */
struct WorkDescriptor
{
    WorkType type = WorkType::Send;
    uint64_t cookie = 0;       ///< opaque user tag, echoed in completion
    sim::Addr local_addr = sim::kNullAddr;
    uint64_t len = 0;
    /** RDMA only: destination address in the remote memory space. */
    sim::Addr remote_addr = sim::kNullAddr;
    /** RDMA only: deliver a remote completion with this immediate.
     *  When false, the write is invisible to the remote CPU. */
    bool has_immediate = false;
    uint32_t immediate = 0;
    /**
     * Simulation-level scalar sidecar surfaced in the receiver's
     * RdmaEvent. Protocol layers use it to carry the semantic value
     * of an RDMA-written word (cDSA completion-flag bits) so pollers
     * keep working when host memory runs in phantom mode.
     */
    uint64_t meta = 0;
    /**
     * Simulation-level sidecar carried with the message and surfaced
     * in the remote completion. Protocol layers attach their typed
     * request/response structs here so control traffic stays parseable
     * when host memory runs in phantom mode; `len` still models the
     * wire size the real serialized message would have.
     */
    std::shared_ptr<void> control;
    /**
     * Determinism arbitration key (DESIGN.md §8.3): orders this work
     * against other work posted to the same NIC on the same tick.
     * Derive it from message content (request offset, transfer tag),
     * never from arrival order. Equal keys keep posting order.
     */
    uint64_t order_key = 0;
};

/** A completed work request, consumed from a completion queue. */
struct WorkCompletion
{
    WorkType type = WorkType::Send;
    WorkStatus status = WorkStatus::Ok;
    EndpointId endpoint = kInvalidEndpoint;
    uint64_t cookie = 0;   ///< poster's cookie (local completions)
    uint64_t len = 0;      ///< bytes transferred
    uint32_t immediate = 0;
    bool has_immediate = false;
    /**
     * Fault injection: some fragment of this message was damaged in
     * flight. The NIC model flips payload bytes when memory is real,
     * and always raises this flag so phantom-memory runs observe the
     * same corruption the real bytes would show. Consumers that care
     * about integrity must treat the data as suspect and fall back on
     * end-to-end digests / retransmission.
     */
    bool corrupted = false;
    /** Sender-attached sidecar (see WorkDescriptor::control). */
    std::shared_ptr<void> control;
};

/** Connection state of an endpoint. */
enum class EndpointState : uint8_t
{
    Idle,
    Connecting,
    Connected,
    Error,
    Closed,
};

} // namespace v3sim::vi

#endif // V3SIM_VI_VI_TYPES_HH
