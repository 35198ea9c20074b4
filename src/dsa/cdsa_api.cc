#include "cdsa_api.hh"

namespace v3sim::dsa
{

sim::Task<std::unique_ptr<CdsaApi>>
CdsaApi::open(osmodel::Node &node, vi::ViNic &nic,
              net::PortId server_port, DsaConfig config)
{
    auto client = std::make_unique<DsaClient>(DsaImpl::Cdsa, node, nic,
                                              server_port, config);
    if (!co_await client->connect())
        co_return nullptr;
    co_return std::unique_ptr<CdsaApi>(new CdsaApi(std::move(client)));
}

void
CdsaApi::close()
{
    // The underlying endpoint dies with the client object; nothing
    // further to flush because every API call completes its I/O
    // before returning ownership of the buffer.
}

sim::Task<bool>
CdsaApi::read(uint64_t offset, uint64_t len, sim::Addr buffer)
{
    return client_->read(offset, len, buffer);
}

sim::Task<bool>
CdsaApi::write(uint64_t offset, uint64_t len, sim::Addr buffer)
{
    return client_->write(offset, len, buffer);
}

CdsaIoHandle
CdsaApi::readAsync(uint64_t offset, uint64_t len, sim::Addr buffer)
{
    auto handle = std::make_shared<CdsaIo>();
    sim::spawn([](DsaClient *client, uint64_t off, uint64_t n,
                  sim::Addr buf, CdsaIoHandle h) -> sim::Task<> {
        const bool ok = co_await client->read(off, n, buf);
        h->ok_ = ok;
        h->done_ = true;
        h->completion_.set(ok);
    }(client_.get(), offset, len, buffer, handle));
    return handle;
}

CdsaIoHandle
CdsaApi::writeAsync(uint64_t offset, uint64_t len, sim::Addr buffer)
{
    auto handle = std::make_shared<CdsaIo>();
    sim::spawn([](DsaClient *client, uint64_t off, uint64_t n,
                  sim::Addr buf, CdsaIoHandle h) -> sim::Task<> {
        const bool ok = co_await client->write(off, n, buf);
        h->ok_ = ok;
        h->done_ = true;
        h->completion_.set(ok);
    }(client_.get(), offset, len, buffer, handle));
    return handle;
}

sim::Task<bool>
CdsaApi::readGather(const std::vector<CdsaSegment> &segs)
{
    bool all_ok = true;
    std::vector<CdsaIoHandle> handles;
    handles.reserve(segs.size());
    for (const CdsaSegment &seg : segs)
        handles.push_back(readAsync(seg.offset, seg.len, seg.buffer));
    for (auto &handle : handles) {
        if (!co_await wait(handle))
            all_ok = false;
    }
    co_return all_ok;
}

sim::Task<bool>
CdsaApi::writeScatter(const std::vector<CdsaSegment> &segs)
{
    bool all_ok = true;
    std::vector<CdsaIoHandle> handles;
    handles.reserve(segs.size());
    for (const CdsaSegment &seg : segs)
        handles.push_back(writeAsync(seg.offset, seg.len, seg.buffer));
    for (auto &handle : handles) {
        if (!co_await wait(handle))
            all_ok = false;
    }
    co_return all_ok;
}

sim::Task<bool>
CdsaApi::wait(CdsaIoHandle handle)
{
    if (!handle)
        co_return false;
    if (handle->done_)
        co_return handle->ok_;
    const bool ok = co_await handle->completion_.wait();
    co_return ok;
}

CdsaVolumeInfo
CdsaApi::volumeInfo() const
{
    CdsaVolumeInfo info;
    info.capacity_bytes = client_->capacity();
    info.connected = client_->connected();
    return info;
}

CdsaStats
CdsaApi::stats() const
{
    CdsaStats stats;
    stats.ios = client_->ioCount();
    stats.retransmits = client_->retransmitCount();
    stats.reconnects = client_->reconnectCount();
    stats.polled_completions = client_->polledCompletions();
    stats.interrupt_completions = client_->interruptCompletions();
    return stats;
}

} // namespace v3sim::dsa
