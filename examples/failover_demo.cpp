/**
 * @file
 * Failover demo: DSA's retransmission, reconnection and node-crash
 * recovery in action.
 *
 * Section 2.2: DSA adds "flow control, retransmission and
 * reconnection that are critical for industrial-strength systems" on
 * top of VI. This demo runs a stream of I/O while injecting, in
 * escalating order of severity:
 *   1. a burst of dropped packets (request-level retransmission
 *      recovers, with the server's dedup filter keeping writes
 *      exactly-once);
 *   2. a silent connection break, as a NIC or link failure would
 *      cause (the client detects it through retransmission
 *      exhaustion, reconnects a fresh VI, replays every outstanding
 *      request, and the workload continues);
 *   3. a whole-node crash and restart: the server drops its volatile
 *      cache and leaves the fabric, then comes back cold — the
 *      client rides through on the same exhaust-and-reconnect path,
 *      because every committed write is already on disk (section
 *      5.2's commit-before-complete rule).
 *
 *   $ ./examples/failover_demo
 */

#include <cstdio>

#include "dsa/dsa_client.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "storage/v3_server.hh"
#include "vi/fault_injector.hh"

using namespace v3sim;

int
main()
{
    sim::Simulation sim(99);
    net::Fabric fabric(sim.queue());
    vi::FaultInjector faults(sim, fabric);
    osmodel::Node host(sim, osmodel::NodeConfig{.name = "db",
                                                .cpus = 4});
    vi::ViNic nic(sim, fabric, host.memory(), "db.nic");

    storage::V3ServerConfig server_config;
    server_config.cache_bytes = 32 * util::kMiB;
    server_config.disk_count = 4;
    storage::V3Server server(sim, fabric, server_config);

    dsa::DsaConfig config;
    config.retransmit_timeout = sim::msecs(10);
    config.max_retransmits = 2;
    config.reconnect_delay = sim::msecs(2);
    dsa::DsaClient client(dsa::DsaImpl::Cdsa, host, nic,
                          server.nic().port(), config);

    const sim::Addr buffer = host.memory().allocate(8192);
    int completed = 0, failed = 0;

    // Fault schedule: three acts of increasing severity. The [&]
    // captures are safe here: main() runs the simulation to
    // completion before any of these locals go out of scope.
    // simlint:allow(ref-capture-escape: main drains the queue before locals die)
    sim.queue().schedule(sim::msecs(20), [&] {
        std::printf("[%7.1f ms] FAULT: dropping the next 6 "
                    "packets\n",
                    sim::toMsecs(sim.now()));
        faults.dropNext(6);
    });
    // simlint:allow(ref-capture-escape: main drains the queue before locals die)
    sim.queue().schedule(sim::msecs(60), [&] {
        std::printf("[%7.1f ms] FAULT: silently breaking the VI "
                    "connection\n",
                    sim::toMsecs(sim.now()));
    });
    // Endpoint 0 is the client's first connection.
    faults.scheduleBreak(sim::msecs(60), nic, 0);
    // simlint:allow(ref-capture-escape: main drains the queue before locals die)
    sim.queue().schedule(sim::msecs(100), [&] {
        std::printf("[%7.1f ms] FAULT: crashing the storage node "
                    "(restart at 115 ms)\n",
                    sim::toMsecs(sim.now()));
    });
    faults.scheduleNodeOutage(sim::msecs(100), sim::msecs(115),
                              server);

    sim::spawn([](sim::Simulation &s, dsa::DsaClient &c, sim::Addr buf,
                  int &done, int &bad) -> sim::Task<> {
        if (!co_await c.connect())
            co_return;
        std::printf("[%7.1f ms] connected, starting workload\n",
                    sim::toMsecs(s.now()));
        for (int i = 0; i < 100; ++i) {
            const uint64_t offset =
                static_cast<uint64_t>(i % 32) * 8192;
            const bool write = i % 3 == 0;
            const bool ok =
                write ? co_await c.write(offset, 8192, buf)
                      : co_await c.read(offset, 8192, buf);
            ok ? ++done : ++bad;
            co_await s.sleep(sim::msecs(1));
        }
        std::printf("[%7.1f ms] workload finished\n",
                    sim::toMsecs(s.now()));
    }(sim, client, buffer, completed, failed));

    sim.run();

    std::printf("\nresults:\n");
    std::printf("  I/Os completed        : %d (failed: %d)\n",
                completed, failed);
    std::printf("  retransmissions       : %llu\n",
                static_cast<unsigned long long>(
                    client.retransmitCount()));
    std::printf("  reconnections         : %llu\n",
                static_cast<unsigned long long>(
                    client.reconnectCount()));
    std::printf("  server dedup hits     : %llu (duplicate requests "
                "answered without re-execution)\n",
                static_cast<unsigned long long>(
                    server.retransmitHits()));
    std::printf("  server writes applied : %llu\n",
                static_cast<unsigned long long>(
                    server.writeCount()));
    std::printf("  node crashes/restarts : %llu/%llu\n",
                static_cast<unsigned long long>(server.crashCount()),
                static_cast<unsigned long long>(
                    server.restartCount()));
    const bool survived = completed == 100 && failed == 0 &&
                          client.reconnectCount() >= 2 &&
                          server.crashCount() == 1 &&
                          server.restartCount() == 1;
    std::printf("\n%s\n",
                survived
                    ? "PASS: every I/O completed despite drops, a "
                      "severed connection, and a node crash"
                    : "UNEXPECTED: see counters above");
    return survived ? 0 : 1;
}
