/**
 * @file
 * The DSA wire protocol between database clients and V3 servers.
 *
 * DSA layers a custom block-I/O protocol over VI (section 2.2). The
 * protocol is deliberately small:
 *
 *  - Hello / HelloAck: per-connection setup, exchanging the credit
 *    budget and the server's write-staging buffer addresses;
 *  - ReadReq: server RDMA-writes the block data straight into the
 *    client's (registered) buffer, then completes;
 *  - WriteReq: the client first RDMA-writes the payload into a
 *    server staging buffer its credits own, then sends the request;
 *    the server commits to disk before completing ("in database
 *    systems writes have to commit to disk", section 5.2);
 *  - completion is either a Response message (consumes a client
 *    receive descriptor, interrupt-driven — the kDSA/wDSA path) or an
 *    RDMA flag write into client memory (invisible to the CPU until
 *    polled — the cDSA path, section 2.2/3.2).
 *
 * Every request carries a per-connection sequence number; the server
 * keeps the highest completed sequence per connection so DSA's
 * request-level retransmission never re-executes a write (exactly-
 * once effect on top of VI's best-effort delivery).
 *
 * Messages travel as VI sends whose modelled wire size is
 * kRequestWireBytes/kResponseWireBytes; the typed structs ride the
 * descriptor's control sidecar (see vi::WorkDescriptor::control).
 *
 * End-to-end integrity (iSCSI-style header/data digests): requests
 * and responses carry CRC32C digests over the message header and the
 * RDMA-staged payload. The link-level CRC only protects one hop, so
 * these digests are what catches NIC-buffer, DMA and staging-copy
 * corruption. A digest mismatch is handled like a lost packet — the
 * request-level retransmission machinery recovers — while a server
 * verify-on-read failure surfaces as IoStatus::IntegrityError so the
 * mirrored layer above can repair from the peer replica.
 */

#ifndef V3SIM_DSA_PROTOCOL_HH
#define V3SIM_DSA_PROTOCOL_HH

#include <cstdint>

#include "sim/memory.hh"

namespace v3sim::dsa
{

/** Modelled wire size of a request message. */
constexpr uint64_t kRequestWireBytes = 64;

/** Modelled wire size of a response / credit message. */
constexpr uint64_t kResponseWireBytes = 64;

/** Outcome of one DSA request, carried in the response. */
enum class IoStatus : uint8_t
{
    Ok,
    /** Request failed server-side (validation, disk error). */
    Error,
    /**
     * A digest check failed in transit (request payload damaged on
     * the way to the server, or response data damaged on the way
     * back). Transient: retransmitting re-stages the data.
     */
    BadDigest,
    /**
     * The server's verify-on-read found the block damaged *on disk*
     * (latent sector error / torn write). Retransmitting will not
     * help; only a redundant replica can.
     */
    IntegrityError,
    /**
     * The admission gate shed the request under overload (DESIGN.md
     * §12). Deliberate backpressure, not loss: the client fails the
     * I/O immediately instead of retransmitting, so the open-loop
     * driver above can count it as shed and move on.
     */
    Busy,
};

/** How the server signals request completion to this client. */
enum class CompletionMode : uint8_t
{
    /** VI send consuming a posted receive; interrupt-capable. */
    Message,
    /** Plain RDMA write of the request's completion flag. */
    RdmaFlag,
};

/** Request operation codes. */
enum class DsaOp : uint8_t
{
    Hello,
    Read,
    Write,
};

/** Client-to-server request (control sidecar of a VI send). */
struct RequestMsg
{
    DsaOp op = DsaOp::Read;
    /** Client-chosen id echoed in the completion. */
    uint64_t request_id = 0;
    /** Per-connection sequence for retransmission dedup. */
    uint64_t seq = 0;
    /** True when this is a retransmission of an earlier send. */
    bool retransmit = false;
    /** Piggybacked ack: every sequence below this has completed at
     *  the client, so the server may prune its dedup filter. */
    uint64_t ack_below = 0;

    uint32_t volume = 0; ///< 0, the server's one volume
    uint64_t offset = 0;
    uint32_t len = 0;

    /** Originating tenant (open-loop multiplexing; 0 = untagged).
     *  The server's admission gate fair-queues by this id. */
    uint64_t tenant = 0;

    /** Read: RDMA target in client memory for the data. */
    sim::Addr client_buffer = sim::kNullAddr;
    /** Write: server staging slot already filled via RDMA. */
    uint32_t staging_slot = 0;

    CompletionMode completion = CompletionMode::Message;
    /** RdmaFlag mode: address of the request's completion flag. */
    sim::Addr flag_addr = sim::kNullAddr;

    /** CRC32C over the request header fields (headerDigest). */
    uint32_t header_digest = 0;
    /** Write: CRC32C over the RDMA-staged payload the client sent.
     *  Meaningful only when digest_valid. */
    uint32_t payload_digest = 0;
    /** False when client memory is phantom: there were no real bytes
     *  to checksum, so the receiver must rely on corruption taint
     *  flags instead of recomputing the CRC. Digest *time* is charged
     *  either way so phantom and real runs cost the same. */
    bool digest_valid = false;
};

/** Server-to-client response (control sidecar, Message mode). */
struct ResponseMsg
{
    uint64_t request_id = 0;
    IoStatus status = IoStatus::Ok;

    /** Read: CRC32C over the data the server RDMA-wrote into the
     *  client buffer. Meaningful only when digest_valid. */
    uint32_t payload_digest = 0;
    /** See RequestMsg::digest_valid. */
    bool digest_valid = false;

    [[nodiscard]] bool ok() const { return status == IoStatus::Ok; }
};

/** The write-staging area a V3 server grants every connection:
 *  kStagingSlots slots of kStagingSlotBytes each, announced in
 *  HelloAckMsg. A write longer than one slot cannot be staged. */
constexpr uint32_t kStagingSlots = 32;
constexpr uint32_t kStagingSlotBytes = 128 * 1024;

/** Server-to-client hello acknowledgement. */
struct HelloAckMsg
{
    /** Request credits: max outstanding requests on the connection
     *  (matches the receive descriptors the server posted). */
    uint32_t request_credits = 0;
    /** Write-staging slots granted to this client. */
    uint32_t staging_slots = 0;
    /** Size of each staging slot in bytes. */
    uint32_t staging_slot_bytes = 0;
    /** Base addresses of the staging slots in server memory. */
    sim::Addr staging_base = sim::kNullAddr;
    /** Capacity of the volume named in the Hello request. */
    uint64_t volume_capacity = 0;
};

/**
 * Tagged server-to-client message (control sidecar): either a
 * request completion or the Hello acknowledgement. The tag keeps the
 * sidecar cast type-safe.
 */
struct ServerMsg
{
    enum class Kind : uint8_t
    {
        Response,
        HelloAck,
    };

    Kind kind = Kind::Response;
    ResponseMsg response;
    HelloAckMsg hello;
};

/** Value the server writes into a completion flag (RdmaFlag mode):
 *  low bit = done, next bit = ok; the two integrity bits distinguish
 *  the retryable digest failure from on-disk damage; the busy bit is
 *  the admission gate's shed signal (fail fast, do not retransmit). */
constexpr uint64_t kFlagDone = 1;
constexpr uint64_t kFlagOk = 2;
constexpr uint64_t kFlagIntegrity = 4;
constexpr uint64_t kFlagBadDigest = 8;
constexpr uint64_t kFlagBusy = 16;

/** Flag word encoding @p status (always includes kFlagDone). The
 *  upper 32 bits carry @p payload_digest so RdmaFlag completions get
 *  the same end-to-end read verification Message completions get
 *  from ResponseMsg::payload_digest (0 = no digest, phantom runs). */
[[nodiscard]] uint64_t flagValue(IoStatus status,
                                 uint32_t payload_digest = 0);

/** Inverse of flagValue; assumes kFlagDone is set. */
[[nodiscard]] IoStatus statusFromFlag(uint64_t flag);

/** The payload digest packed into a completion flag (0 = none). */
[[nodiscard]] constexpr uint32_t
digestFromFlag(uint64_t flag)
{
    return static_cast<uint32_t>(flag >> 32);
}

/**
 * CRC32C over [addr, addr+len) of @p mem, read in place. Returns 0
 * with no bytes read when the space is phantom — pair with
 * digest_valid=false — or the range is not inside one allocation. Pass
 * the previous return value as @p seed to digest discontiguous pieces
 * (e.g. cache frames feeding one response) as a single stream. The
 * *time* a real implementation would spend is charged separately by
 * the caller (DsaClientCosts::digest_per_kb and the server's
 * equivalent), keeping phantom and real runs cost-identical.
 */
uint32_t payloadDigest(const sim::MemorySpace &mem, sim::Addr addr,
                       uint64_t len, uint32_t seed = 0);

/** CRC32C over the semantic header fields of @p req (excludes the
 *  digest fields themselves, like iSCSI's header digest). */
uint32_t headerDigest(const RequestMsg &req);

} // namespace v3sim::dsa

#endif // V3SIM_DSA_PROTOCOL_HH
