#include "protocol.hh"

#include <cstring>

#include "util/crc32c.hh"

namespace v3sim::dsa
{

uint64_t
flagValue(IoStatus status, uint32_t payload_digest)
{
    uint64_t flag = kFlagDone;
    switch (status) {
      case IoStatus::Ok:
        flag |= kFlagOk;
        break;
      case IoStatus::Error:
        break;
      case IoStatus::BadDigest:
        flag |= kFlagBadDigest;
        break;
      case IoStatus::IntegrityError:
        flag |= kFlagIntegrity;
        break;
      case IoStatus::Busy:
        flag |= kFlagBusy;
        break;
    }
    return flag | (static_cast<uint64_t>(payload_digest) << 32);
}

IoStatus
statusFromFlag(uint64_t flag)
{
    if (flag & kFlagOk)
        return IoStatus::Ok;
    if (flag & kFlagBadDigest)
        return IoStatus::BadDigest;
    if (flag & kFlagIntegrity)
        return IoStatus::IntegrityError;
    if (flag & kFlagBusy)
        return IoStatus::Busy;
    return IoStatus::Error;
}

uint32_t
payloadDigest(const sim::MemorySpace &mem, sim::Addr addr, uint64_t len,
              uint32_t seed)
{
    const uint8_t *bytes = mem.bytesAt(addr, len);
    return bytes ? util::crc32c(bytes, len, seed) : 0;
}

uint32_t
headerDigest(const RequestMsg &req)
{
    // The fields a serialized request header would carry, packed in a
    // fixed order. The digest fields themselves are excluded (iSCSI
    // header-digest style).
    uint8_t buf[48];
    std::memset(buf, 0, sizeof(buf));
    size_t at = 0;
    auto put = [&buf, &at](const void *src, size_t n) {
        std::memcpy(buf + at, src, n);
        at += n;
    };
    const uint8_t op = static_cast<uint8_t>(req.op);
    put(&op, sizeof(op));
    put(&req.request_id, sizeof(req.request_id));
    put(&req.seq, sizeof(req.seq));
    put(&req.volume, sizeof(req.volume));
    put(&req.offset, sizeof(req.offset));
    put(&req.len, sizeof(req.len));
    put(&req.tenant, sizeof(req.tenant));
    put(&req.staging_slot, sizeof(req.staging_slot));
    return util::crc32c(buf, at);
}

} // namespace v3sim::dsa
