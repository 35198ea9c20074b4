/**
 * @file
 * Quickstart: attach a V3 volume over cDSA and do block I/O.
 *
 * Builds the minimal deployment from the paper — one database host,
 * one V3 storage node with a striped volume, a VI fabric between
 * them — then writes a block, reads it back, verifies the data, and
 * prints the latency plus the host-CPU cost of each operation.
 *
 *   $ ./examples/quickstart
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "dsa/dsa_client.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "storage/v3_server.hh"
#include "util/units.hh"

using namespace v3sim;

int
main()
{
    // 1. One simulation = one experiment. Everything below shares it.
    sim::Simulation sim(/*seed=*/2026);
    net::Fabric fabric(sim.queue());

    // 2. The database host: 4 CPUs, one VI NIC.
    osmodel::Node host(sim, osmodel::NodeConfig{.name = "db",
                                                .cpus = 4});
    vi::ViNic nic(sim, fabric, host.memory(), "db.nic");

    // 3. A V3 storage node: 2 CPUs, 64 MB cache, four 10K-RPM SCSI
    //    disks striped into one volume.
    storage::V3ServerConfig server_config;
    server_config.name = "v3";
    server_config.cache_bytes = 64 * util::kMiB;
    server_config.disk_count = 4;
    storage::V3Server server(sim, fabric, server_config);

    // 4. A cDSA connection to that volume.
    dsa::DsaClient client(dsa::DsaImpl::Cdsa, host, nic,
                          server.nic().port());

    // 5. Application code is a coroutine: connect, write, read.
    const sim::Addr buffer = host.memory().allocate(8192);
    const sim::Addr readback = host.memory().allocate(8192);
    const char message[] = "hello, VI-attached storage!";
    host.memory().write(buffer, message, sizeof(message));

    sim::spawn([](sim::Simulation &s, dsa::DsaClient &c,
                  osmodel::Node &h, sim::Addr wbuf,
                  sim::Addr rbuf) -> sim::Task<> {
        if (!co_await c.connect()) {
            std::printf("connect failed\n");
            co_return;
        }
        std::printf("connected: volume capacity %s, "
                    "%llu request credits granted\n",
                    util::formatSize(c.capacity()).c_str(),
                    static_cast<unsigned long long>(
                        c.config().max_outstanding));

        sim::Tick start = s.now();
        const bool wrote = co_await c.write(0, 8192, wbuf);
        std::printf("write 8K: %s in %s\n",
                    wrote ? "ok (durable on disk)" : "FAILED",
                    util::formatUsecs(s.now() - start).c_str());

        start = s.now();
        const bool read = co_await c.read(0, 8192, rbuf);
        std::printf("read  8K: %s in %s (served from server "
                    "cache)\n",
                    read ? "ok" : "FAILED",
                    util::formatUsecs(s.now() - start).c_str());

        std::printf("host CPU spent so far: %s "
                    "(Kernel %s, DSA %s, VI %s, Lock %s)\n",
                    util::formatUsecs(h.cpus().totalBusyTime())
                        .c_str(),
                    util::formatUsecs(h.cpus().busyTime(
                                          osmodel::CpuCat::Kernel))
                        .c_str(),
                    util::formatUsecs(h.cpus().busyTime(
                                          osmodel::CpuCat::Dsa))
                        .c_str(),
                    util::formatUsecs(h.cpus().busyTime(
                                          osmodel::CpuCat::Vi))
                        .c_str(),
                    util::formatUsecs(h.cpus().busyTime(
                                          osmodel::CpuCat::Lock))
                        .c_str());
    }(sim, client, host, buffer, readback));

    sim.run();

    // 6. Verify the data really made the round trip through the
    //    server cache and disks.
    char out[sizeof(message)] = {};
    host.memory().read(readback, out, sizeof(out));
    if (std::memcmp(out, message, sizeof(message)) == 0)
        std::printf("data integrity verified: \"%s\"\n", out);
    else
        std::printf("DATA MISMATCH\n");

    std::printf("server stats: %llu reads, %llu writes, cache hit "
                "ratio %.0f%%\n",
                static_cast<unsigned long long>(server.readCount()),
                static_cast<unsigned long long>(server.writeCount()),
                server.cacheHitRatio() * 100);
    return 0;
}
