#include "microbench.hh"

#include <algorithm>

namespace v3sim::scenarios
{

using osmodel::CpuCat;
using osmodel::CpuLease;

MicroRig::MicroRig(Config config)
    : config_(std::move(config)), rng_(config_.seed ^ 0xABCDEF)
{
    HostParams host = HostParams::midSize();
    StorageParams storage;
    storage.v3_nodes = 1;
    storage.disks_per_node = config_.disks;
    storage.disk_spec = config_.disk_spec;
    storage.cache_bytes_per_node = config_.cache_bytes;
    storage.local_disks = config_.disks;

    testbed_ = std::make_unique<Testbed>(config_.backend, host,
                                         storage, config_.dsa,
                                         config_.seed);
    ready_ = testbed_->connectAll();

    // One shared scratch pool big enough for the largest request.
    buffer_pool_ =
        testbed_->host().memory().allocate(256 * util::kKiB);
}

MicroRig::~MicroRig() = default;

void
MicroRig::warmRegion(uint64_t size)
{
    // A modest region of distinct offsets that comfortably fits the
    // server cache; one sweep loads every block.
    const uint64_t region = std::min<uint64_t>(
        config_.cache_bytes ? config_.cache_bytes / 2 : 8 * util::kMiB,
        8 * util::kMiB);
    warm_bytes_ = std::max<uint64_t>(region, size);
    sim::spawn([](MicroRig *rig, uint64_t request) -> sim::Task<> {
        for (uint64_t off = 0; off + request <= rig->warm_bytes_;
             off += request) {
            co_await rig->device().read(off, request,
                                        rig->buffer_pool_);
        }
    }(this, std::max<uint64_t>(size, 8192)));
    sim().run();
}

MicroRig::LatencyResult
MicroRig::measureLatency(uint64_t size, bool is_read, int iterations,
                         bool cached)
{
    if (cached)
        warmRegion(size);

    testbed_->resetStats();
    sim::Sampler response;
    const uint64_t span =
        cached ? warm_bytes_
               : testbed_->device().capacity() - size;

    sim::spawn([](MicroRig *rig, uint64_t request, bool read_op,
                  int iters, uint64_t range,
                  sim::Sampler &out) -> sim::Task<> {
        sim::Simulation &s = rig->sim();
        for (int i = 0; i < iters; ++i) {
            const uint64_t offset =
                rig->rng_.uniformInt(0, range / request - 1) *
                request;
            const sim::Tick start = s.now();
            if (read_op) {
                co_await rig->device().read(offset, request,
                                            rig->buffer_pool_);
            } else {
                co_await rig->device().write(offset, request,
                                             rig->buffer_pool_);
            }
            out.add(static_cast<double>(s.now() - start));
        }
    }(this, size, is_read, iterations, span, response));

    const sim::Tick cpu_before = host().cpus().totalBusyTime();
    sim().run();

    LatencyResult result;
    result.mean_us = response.mean() / 1e3;
    result.cpu_overhead_us =
        sim::toUsecs(host().cpus().totalBusyTime() - cpu_before) /
        iterations;
    if (!testbed_->nodes().empty()) {
        const sim::Sampler &served =
            testbed_->nodes().front()->serverTime();
        if (served.count() > 0)
            result.server_us = served.mean() / 1e3;
    }

    // Tail latency from the rig's one session.
    const sim::Histogram &hist =
        testbed_->sessions().front()->latencyHistogram();
    result.p50_us = hist.quantile(0.50) / 1e3;
    result.p95_us = hist.quantile(0.95) / 1e3;
    result.p99_us = hist.quantile(0.99) / 1e3;
    return result;
}

MicroRig::ThroughputResult
MicroRig::measureThroughput(uint64_t size, bool is_read,
                            int outstanding, sim::Tick window,
                            bool cached)
{
    if (cached)
        warmRegion(size);
    testbed_->resetStats();

    const uint64_t span =
        cached ? warm_bytes_
               : testbed_->device().capacity() - size;
    sim::Sampler response;
    uint64_t completed = 0;
    bool stop = false;

    for (int w = 0; w < outstanding; ++w) {
        sim::spawn([](MicroRig *rig, uint64_t request, bool read_op,
                      uint64_t range, sim::Sampler &out,
                      uint64_t &count, bool &halt) -> sim::Task<> {
            sim::Simulation &s = rig->sim();
            while (!halt) {
                const uint64_t offset =
                    rig->rng_.uniformInt(0, range / request - 1) *
                    request;
                const sim::Tick start = s.now();
                if (read_op) {
                    co_await rig->device().read(offset, request,
                                                rig->buffer_pool_);
                } else {
                    co_await rig->device().write(offset, request,
                                                 rig->buffer_pool_);
                }
                out.add(static_cast<double>(s.now() - start));
                ++count;
            }
        }(this, size, is_read, span, response, completed, stop));
    }

    const sim::Tick begin = sim().now();
    sim().runUntil(begin + window);
    const sim::Tick span_ticks = sim().now() - begin;
    stop = true;
    sim().run();

    ThroughputResult result;
    const double seconds = sim::toSecs(span_ticks);
    result.mbps = static_cast<double>(completed) *
                  static_cast<double>(size) / seconds / 1e6;
    result.iops = static_cast<double>(completed) / seconds;
    result.mean_response_us = response.mean() / 1e3;
    // resetStats() above started a fresh epoch, so the pool's busy
    // time covers exactly this measurement (window plus drain).
    if (completed > 0)
        result.cpu_us_per_io =
            sim::toUsecs(host().cpus().totalBusyTime()) /
            static_cast<double>(completed);
    const sim::Histogram &hist =
        testbed_->sessions().front()->latencyHistogram();
    result.p95_us = hist.quantile(0.95) / 1e3;
    result.p99_us = hist.quantile(0.99) / 1e3;
    return result;
}

double
rawViLatencyUs(uint64_t size, int iterations, uint64_t seed)
{
    // Build the minimal two-node VI setup the paper's raw test uses.
    sim::Simulation sim(seed);
    net::Fabric fabric(sim.queue());
    osmodel::Node client_node(
        sim, osmodel::NodeConfig{.name = "cli", .cpus = 1});
    osmodel::Node server_node(
        sim, osmodel::NodeConfig{.name = "srv", .cpus = 1});
    vi::ViNic client_nic(sim, fabric, client_node.memory(), "cli.nic");
    vi::ViNic server_nic(sim, fabric, server_node.memory(), "srv.nic");

    vi::CompletionQueue client_rcq;
    vi::CompletionQueue server_rcq;
    vi::ViEndpoint &client_ep = client_nic.createEndpoint(&client_rcq);
    vi::ViEndpoint &server_ep = server_nic.createEndpoint(&server_rcq);
    server_nic.setAcceptHandler(
        [&](net::PortId, vi::EndpointId) { return &server_ep; });

    // Pre-registered fixed resources (the paper's server sends from
    // a preregistered buffer; the client's request buffer is small
    // and long-lived).
    sim::MemorySpace &cmem = client_node.memory();
    sim::MemorySpace &smem = server_node.memory();
    const sim::Addr req_buf = cmem.allocate(64);
    const auto req_handle =
        client_nic.registry().registerMemory(req_buf, 64, true);
    const sim::Addr srv_req_buf = smem.allocate(64);
    const auto srv_req_handle =
        server_nic.registry().registerMemory(srv_req_buf, 64, true);
    const sim::Addr srv_data = smem.allocate(size);
    const auto srv_data_handle =
        server_nic.registry().registerMemory(srv_data, size, true);

    const sim::Addr data_buf = cmem.allocate(size);

    // Server: poll for requests, respond with RDMA + immediate
    // (polling on the server per section 5.1).
    sim::spawn([](vi::ViNic &nic, vi::ViEndpoint &ep,
                  vi::CompletionQueue &rcq, sim::Addr reply_src,
                  vi::MemHandle reply_handle, uint64_t reply_len,
                  sim::Addr req_target,
                  vi::MemHandle req_handle_) -> sim::Task<> {
        for (;;) {
            vi::WorkDescriptor recv;
            recv.local_addr = req_target;
            recv.len = 64;
            nic.postRecv(ep, recv, req_handle_);
            const vi::WorkCompletion completion = co_await rcq.next();
            if (completion.status != vi::WorkStatus::Ok)
                co_return;
            auto target = std::static_pointer_cast<sim::Addr>(
                completion.control);
            vi::WorkDescriptor rdma;
            rdma.local_addr = reply_src;
            rdma.len = reply_len;
            rdma.remote_addr = *target;
            rdma.has_immediate = true;
            rdma.immediate = 1;
            nic.postRdmaWrite(ep, rdma, reply_handle);
        }
    }(server_nic, server_ep, server_rcq, srv_data, srv_data_handle->handle,
      size, srv_req_buf, srv_req_handle->handle));

    client_nic.connect(client_ep, server_nic.port());
    sim.run();

    // The measured loop, with client-side costs charged per the
    // paper's step list.
    sim::Sampler latency;
    sim::spawn([](sim::Simulation &s, osmodel::Node &node,
                  vi::ViNic &nic, vi::ViEndpoint &ep,
                  vi::CompletionQueue &rcq, sim::Addr req,
                  vi::MemHandle req_h, sim::Addr data, uint64_t len,
                  int iters, sim::Sampler &out) -> sim::Task<> {
        for (int i = 0; i < iters; ++i) {
            const sim::Tick start = s.now();
            CpuLease lease = co_await node.cpus().acquire();

            // (1) register the receive buffer dynamically.
            auto reg = nic.registry().registerMemory(data, len, false);
            co_await lease.run(reg ? reg->cost : 0, CpuCat::Vi);

            // (2) post a receive for the immediate + send the 64-byte
            // request.
            vi::WorkDescriptor recv;
            recv.local_addr = req;
            recv.len = 64;
            nic.postRecv(ep, recv, req_h);
            rcq.arm();
            sim::Completion<> got;
            rcq.setInterruptSink([&got, &node] {
                node.interrupts().raise(
                    [&got](CpuLease) -> sim::Task<> {
                        got.set();
                        co_return;
                    });
            });

            vi::WorkDescriptor send;
            send.local_addr = req;
            send.len = 64;
            send.control = std::make_shared<sim::Addr>(data);
            co_await lease.run(nic.costs().doorbell, CpuCat::Vi);
            nic.postSend(ep, send, req_h);
            node.cpus().release();

            // (5) interrupt on the completion queue.
            co_await got.wait();

            lease = co_await node.cpus().acquire();
            co_await lease.run(nic.costs().cq_poll, CpuCat::Vi);
            rcq.poll();
            // (6) deregister.
            auto dereg = nic.registry().deregister(reg->handle);
            co_await lease.run(dereg.value_or(0), CpuCat::Vi);
            node.cpus().release();

            out.add(static_cast<double>(s.now() - start));
        }
    }(sim, client_node, client_nic, client_ep, client_rcq, req_buf,
      req_handle->handle, data_buf, size, iterations, latency));

    sim.run();
    return latency.mean() / 1e3;
}

} // namespace v3sim::scenarios
