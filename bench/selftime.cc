/**
 * @file
 * Simulator self-timing: how fast is the event loop itself?
 *
 * Every other bench measures the *modeled* system; this one measures
 * the harness. It times four fixed-seed profiles and reports raw
 * events/sec and wall-seconds per simulated-second, so simulator
 * performance becomes a tracked BENCH_selftime.json trajectory
 * instead of folklore (ROADMAP: "Simulator speed overhaul for
 * million-client runs"). The profiles run in kRounds interleaved
 * rounds, so a slow spell on a shared host hits each of them alike,
 * and each reports its median wall time. The run exits 1 if a
 * profile fires a different number of events in two rounds.
 *
 * Profiles:
 *  - core:  a pure event-queue churn — actors rescheduling
 *    themselves at pseudo-random near-future delays, zero-delay
 *    continuation chains, final-band arbitration events, and a
 *    cancelled-timer slice. No model code: this isolates schedule/
 *    fire/cancel cost.
 *  - fig09: the slowest run of Figure 9's optimization stack —
 *    large configuration, cDSA with batched deregistration and
 *    interrupt batching but unreduced sync pairs.
 *  - fig10: the full-scale large-configuration TPC-C run (cDSA),
 *    the heaviest workload in the figure set.
 *  - fig13: the mid-size TPC-C run (cDSA).
 *
 * Wall-clock use is the whole point here, so the determinism rule is
 * waived file-wide (the *simulated* results of the profiles stay
 * seed-deterministic; only the wall timings vary run to run).
 * Compare two artifacts with tools/bench_diff.
 */

// simlint:allow-file(wall-clock: self-timing bench measures real elapsed time)
// simlint:allow-file(banned-header: chrono is the wall clock this bench exists to read)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "scenarios/tpcc_run.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "util/bench_reporter.hh"
#include "util/table.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

namespace
{

/** Rounds each profile runs; it reports the median wall time. */
constexpr int kRounds = 3;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct ProfileResult
{
    uint64_t events = 0;
    double sim_s = 0;
    double wall_s = 0;
};

/**
 * Pure event-loop churn at a fixed seed: kActors self-rescheduling
 * actors with near-future delays (the ladder's home turf), each
 * spawning a zero-delay continuation and a final-band arbitration
 * event per firing, plus a cancelled retransmit-style timer every
 * 16th firing — the schedule/fire/cancel mix the model code
 * produces, minus the model.
 */
ProfileResult
runCore(uint64_t target_events)
{
    constexpr int kActors = 64;
    sim::Simulation sim(/*seed=*/42);
    sim::Rng rng = sim.forkRng();
    uint64_t remaining = target_events;

    struct Actor
    {
        sim::Simulation &sim;
        sim::Rng rng;
        uint64_t *remaining;
        uint64_t fires = 0;
        sim::EventQueue::Handle timer;

        void
        step()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            ++fires;
            // Zero-delay continuation (intra-operation chain).
            sim.queue().schedule(0, [] {});
            // Final-band arbitration point, like a disk pick.
            if ((fires & 7) == 0)
                sim.queue().scheduleFinal([] {});
            // Retransmit-style timer: armed, then cancelled by the
            // "response" long before it fires.
            if ((fires & 15) == 0) {
                timer.cancel();
                timer = sim.queue().scheduleCancelable(
                    sim::msecs(100), [] {});
            }
            const sim::Tick d = sim::nsecs(
                100 + static_cast<sim::Tick>(rng.next() % 50000));
            sim.queue().schedule(d, [this] { step(); });
        }
    };

    std::vector<std::unique_ptr<Actor>> actors;
    for (int a = 0; a < kActors; ++a) {
        actors.push_back(std::unique_ptr<Actor>(
            new Actor{sim, rng.fork(), &remaining, 0, {}}));
    }
    const double t0 = wallNow();
    for (auto &actor : actors)
        actor->step();
    sim.run();
    const double t1 = wallNow();

    ProfileResult out;
    out.events = sim.queue().firedCount();
    out.sim_s = sim::toSecs(sim.now());
    out.wall_s = t1 - t0;
    return out;
}

ProfileResult
runTpccProfile(Platform platform, bool quick,
               dsa::DsaOptimizations opts = dsa::DsaOptimizations::all())
{
    TpccRunConfig config;
    config.platform = platform;
    config.backend = Backend::Cdsa;
    config.dsa.opts = opts;
    config.seed = 1;
    if (quick) {
        config.warmup = sim::msecs(60);
        config.window = sim::msecs(250);
    }
    const double t0 = wallNow();
    const TpccRunResult result = runTpcc(config);
    const double t1 = wallNow();

    ProfileResult out;
    out.events = result.events_fired;
    out.sim_s = sim::toSecs(result.sim_elapsed);
    out.wall_s = t1 - t0;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    util::BenchReporter reporter("selftime", argc, argv);

    std::printf("Simulator self-timing (events/sec, "
                "wall-seconds per simulated-second, median of %d "
                "rounds)\n\n",
                kRounds);
    util::TextTable table({"profile", "events", "sim_s", "wall_s",
                           "events/s", "wall/sim"});

    struct Profile
    {
        const char *name;
        std::function<ProfileResult()> run;
        std::vector<ProfileResult> rounds;
    };
    const bool quick = reporter.quick();
    const uint64_t core_events = quick ? 200 * 1000 : 8 * 1000 * 1000;
    Profile profiles[] = {
        {"core", [&] { return runCore(core_events); }, {}},
        {"fig09",
         [&] {
             return runTpccProfile(Platform::Large, quick,
                                   {/*batched_dereg=*/true,
                                    /*interrupt_batching=*/true,
                                    /*reduced_sync=*/false});
         },
         {}},
        {"fig10", [&] { return runTpccProfile(Platform::Large, quick); },
         {}},
        {"fig13",
         [&] { return runTpccProfile(Platform::MidSize, quick); }, {}},
    };
    for (int round = 0; round < kRounds; ++round) {
        for (Profile &profile : profiles)
            profile.rounds.push_back(profile.run());
    }

    bool stable = true;
    for (const Profile &profile : profiles) {
        ProfileResult r = profile.rounds.front();
        std::vector<double> walls;
        for (const ProfileResult &round : profile.rounds) {
            walls.push_back(round.wall_s);
            if (round.events != r.events) {
                std::fprintf(stderr,
                             "selftime: %s fired %llu events in one "
                             "round and %llu in another\n",
                             profile.name,
                             static_cast<unsigned long long>(r.events),
                             static_cast<unsigned long long>(
                                 round.events));
                stable = false;
            }
        }
        std::sort(walls.begin(), walls.end());
        r.wall_s = walls[walls.size() / 2];

        const double eps =
            r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
        const double wps = r.sim_s > 0 ? r.wall_s / r.sim_s : 0;
        table.addRow({profile.name, std::to_string(r.events),
                      util::TextTable::num(r.sim_s, 3),
                      util::TextTable::num(r.wall_s, 3),
                      util::TextTable::num(eps / 1e6, 3) + "M",
                      util::TextTable::num(wps, 3)});
        reporter.beginRow();
        reporter.col("profile", std::string(profile.name));
        reporter.col("events", r.events);
        reporter.col("sim_s", r.sim_s);
        reporter.col("wall_s", r.wall_s);
        reporter.col("events_per_sec", eps);
        reporter.col("wall_per_sim_sec", wps);
    }
    table.print();
    reporter.note("workloads",
                  "core=synthetic event churn; fig09/fig10/fig13 = "
                  "cDSA TPC-C profiles at seed 1; fig09 is Figure 9's "
                  "slowest run (large, +dereg+intrpt, sync pairs not "
                  "reduced)");
    reporter.note("rounds", std::to_string(kRounds) +
                                " interleaved rounds; wall_s is each "
                                "profile's median");
    const bool written = reporter.write();
    return stable && written ? 0 : 1;
}
