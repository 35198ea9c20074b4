/**
 * @file
 * iSCSI protocol data units — the SCSI-like wire vocabulary of the
 * rival transport (DESIGN.md §11).
 *
 * Models the RFC 3720 surface the host-overhead comparison depends
 * on: a 48-byte Basic Header Segment per PDU, optional header and
 * data digests (CRC32C — the same util/crc32c the DSA integrity work
 * uses, §7.3), immediate data for writes (ImmediateData=Yes,
 * InitialR2T=No: the data segment rides in the command PDU, the best
 * case for TCP) and phase-collapsed reads (a single Data-In PDU
 * carrying payload and SCSI status, the S-bit optimization).
 *
 * Data segments are store-and-forward byte vectors: TCP has no RDMA
 * placement, so payloads exist as real buffers that get copied across
 * the user/kernel boundary at both ends — exactly the copies the
 * paper's VI path eliminates. In phantom-memory runs the vector is
 * absent (data == nullptr) and digests carry data_digest_valid ==
 * false; the wire taint bit is then the only damage signal, the same
 * convention dsa::payloadDigest uses.
 *
 * Damage model: a PDU reassembled from a tainted TCP message (see
 * net::TcpMessage) had bytes damaged in flight. When the PDU carries
 * real data the receiver flips a byte before the digest check — so
 * detection is by actual CRC comparison, not by trusting the taint
 * bit — and the sender must therefore never re-send the same data
 * vector (command retries rebuild the PDU from source memory).
 * Header-only PDUs damaged in flight fail the header-digest check
 * directly.
 */

#ifndef V3SIM_ISCSI_PDU_HH
#define V3SIM_ISCSI_PDU_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/crc32c.hh"

namespace v3sim::iscsi
{

/** Basic Header Segment size (RFC 3720 §10.2). */
constexpr uint32_t kBhsBytes = 48;

/** One digest word (HeaderDigest / DataDigest = CRC32C). */
constexpr uint32_t kDigestBytes = 4;

/** The PDU opcodes the model needs. */
enum class PduOp : uint8_t
{
    LoginRequest,
    LoginResponse,
    ScsiCommand,  ///< read or write CDB (writes carry immediate data)
    DataIn,       ///< read payload + collapsed SCSI status (S-bit)
    ScsiResponse, ///< write completion status
};

/** SCSI-level command outcome. */
enum class ScsiStatus : uint8_t
{
    Good,
    CheckCondition, ///< invalid LBA/range or device error
    DigestError,    ///< header/data digest mismatch — retryable
    IntegrityError, ///< verify-on-read found damaged platter data
    Busy,           ///< shed by the target's admission gate (SCSI
                    ///< TASK SET FULL); fail fast, do not retry
};

/**
 * One PDU. The struct is the modeled wire image: pduWireBytes()
 * derives the byte count TCP segments and the checksum/copy costs
 * are charged over.
 */
struct Pdu
{
    PduOp op = PduOp::ScsiCommand;
    /** Initiator task tag: matches responses to outstanding
     *  commands. Retries use a fresh tag (block I/O is idempotent,
     *  so the target keeps no per-task state). */
    uint64_t itt = 0;
    bool is_write = false;
    uint32_t volume = 0;   ///< 0, the target's one volume
    uint64_t offset = 0;   ///< byte offset on the target volume
    uint64_t xfer_len = 0; ///< requested transfer length
    /** Issuing tenant id (open-loop multiplexing): the target's
     *  admission gate fair-queues commands by this id. */
    uint64_t tenant = 0;

    /** Data segment content; nullptr when the run is phantom (or the
     *  PDU has no data segment). Never re-sent after transmission —
     *  see the damage model in the file comment. */
    std::shared_ptr<std::vector<uint8_t>> data;
    /** Modeled data-segment length (set even in phantom runs). */
    uint64_t data_len = 0;

    ScsiStatus status = ScsiStatus::Good;

    uint32_t header_digest = 0;
    uint32_t data_digest = 0;
    /** False in phantom runs: no bytes to digest (taint covers it). */
    bool data_digest_valid = false;

    /** LoginResponse: capacity of the negotiated volume. */
    uint64_t volume_capacity = 0;
};

/** Modeled wire size: BHS + header digest + data + data digest. */
inline uint64_t
pduWireBytes(const Pdu &pdu)
{
    uint64_t bytes = kBhsBytes + kDigestBytes;
    if (pdu.data_len > 0)
        bytes += pdu.data_len + kDigestBytes;
    return bytes;
}

/** CRC32C over the header fields the BHS would carry. */
inline uint32_t
pduHeaderDigest(const Pdu &pdu)
{
    uint8_t bhs[kBhsBytes] = {};
    size_t at = 0;
    auto put = [&bhs, &at](const void *src, size_t len) {
        std::memcpy(bhs + at, src, len);
        at += len;
    };
    const uint8_t op = static_cast<uint8_t>(pdu.op);
    const uint8_t wr = pdu.is_write ? 1 : 0;
    const uint8_t st = static_cast<uint8_t>(pdu.status);
    put(&op, 1);
    put(&wr, 1);
    put(&st, 1);
    put(&pdu.itt, sizeof(pdu.itt));
    put(&pdu.volume, sizeof(pdu.volume));
    put(&pdu.offset, sizeof(pdu.offset));
    put(&pdu.xfer_len, sizeof(pdu.xfer_len));
    put(&pdu.tenant, sizeof(pdu.tenant));
    put(&pdu.data_len, sizeof(pdu.data_len));
    return util::crc32c(bhs, sizeof(bhs));
}

/** CRC32C over a data segment. */
inline uint32_t
pduDataDigest(const std::vector<uint8_t> &data)
{
    return util::crc32c(data.data(), data.size());
}

} // namespace v3sim::iscsi

#endif // V3SIM_ISCSI_PDU_HH
