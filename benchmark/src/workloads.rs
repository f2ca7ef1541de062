//! The four benchmark workloads.
//!
//! Every workload is closed loop (the paper's clients wait for their
//! reply) against a PBFT shim of four nodes, and is described twice: a
//! simulated point (`sim_*` / `host_*` metrics) and a thread-runtime
//! point (`rt_*` metrics) sharing one `WorkloadConfig`. The README's
//! "Workloads" section records why each point sits where it does.

use sbft_core::{System, SystemBuilder};
use sbft_serverless::CrashRestart;
use sbft_sim::{FaultPlan, LinkFaults, LinkRule, SimParams};
use sbft_types::{
    ConflictHandling, DurabilityConfig, NodeId, RegionSet, ShardingConfig, SimDuration,
    SystemConfig,
};
use std::time::Instant;

/// Upper bound of the extra delay every shim ⇄ shim message draws
/// (uniform, from the run seed). The base `NetworkModel` is
/// jitter-free, and with non-conflicting transactions keys never touch
/// timing, so without this every seed would replay one identical run:
/// ten seeds would be ten copies of one number. 100 µs is 40 % of the
/// modelled 250 µs one-way LAN latency.
pub const LINK_JITTER: SimDuration = SimDuration::from_micros(100);

/// Names of the workloads, in report order.
pub const NAMES: [&str; 4] = ["steady", "saturate", "sharded_multiop", "crash_primary"];

/// The simulated point of a workload.
#[derive(Clone, Copy, Debug)]
pub struct SimPoint {
    /// Closed-loop clients.
    pub clients: usize,
    /// Warm-up excluded from every metric.
    pub warmup: SimDuration,
    /// Measured window of simulated time.
    pub duration: SimDuration,
    /// The scheduled crash-restart, if the workload injects one.
    pub crash: Option<CrashRestart>,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name used on the command line and in every output row.
    pub name: &'static str,
    /// Deployment the simulator runs.
    pub config: SystemConfig,
    /// The simulated point.
    pub sim: SimPoint,
    /// Closed-loop clients of the loaded thread-runtime run (the
    /// unloaded run always uses one).
    pub rt_clients: usize,
}

fn base_config() -> SystemConfig {
    // The paper's default flow (Section VI-B, Figure 4) as the repo
    // configures it: 4-node PBFT shim, 3 executors over 3 regions,
    // 600 k records, batches of 100, one operation per transaction,
    // half of them writes, uniform keys, non-conflicting handling.
    SystemConfig::with_shim_size(4)
}

impl Workload {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        let ms = SimDuration::from_millis;
        match name {
            "steady" => Some(Workload {
                name: "steady",
                config: base_config(),
                sim: SimPoint {
                    clients: 6_400,
                    warmup: ms(150),
                    duration: ms(1_000),
                    crash: None,
                },
                rt_clients: 64,
            }),
            "saturate" => {
                let mut config = base_config();
                // One region: executors spread over three regions read
                // storage at different instants, and once load breaks the
                // closed loop's lock-step their digests diverge and whole
                // batches abort (3–12 % at this load). The benchmark needs
                // a point where nothing fails.
                config.regions = RegionSet::home_only();
                Some(Workload {
                    name: "saturate",
                    config,
                    sim: SimPoint {
                        // 2.6 times the knee (19.4 k clients): the
                        // half-load point of the traced run is past it too.
                        clients: 51_200,
                        warmup: ms(150),
                        duration: ms(150),
                        crash: None,
                    },
                    rt_clients: 256,
                })
            }
            "sharded_multiop" => {
                let mut config = base_config();
                // Undeclared read-write sets: 3f_E + 1 executors, read
                // sets validated at the verifier, stale reads aborted.
                // The declared mode (`KnownRwSets`) cannot carry a
                // benchmark today: its conflict planner wedges until a
                // 2 s client timer fires on about a third of the seeds
                // (README, "Blind spots").
                config.conflict_handling = ConflictHandling::UnknownRwSets;
                config.sharding = ShardingConfig::with_shards(8).with_workers(2);
                config.workload.batch_size = 50;
                config.workload.ops_per_txn = 2;
                Some(Workload {
                    name: "sharded_multiop",
                    config,
                    sim: SimPoint {
                        clients: 1_000,
                        warmup: ms(150),
                        duration: ms(4_000),
                        crash: None,
                    },
                    rt_clients: 64,
                })
            }
            "crash_primary" => {
                let mut config = base_config();
                // A snapshot every 64 commits rather than the default 8, so
                // the restarted primary has a WAL suffix to replay whatever
                // the phase of the snapshot rhythm at the crash.
                config.durability = DurabilityConfig::enabled().with_snapshot_interval(64);
                config.workload.batch_size = 20;
                // One region, as on `saturate`: once the crash breaks the
                // closed loop's lock-step, executors in three regions read
                // storage at different instants and a whole batch aborts on
                // divergent digests on one seed in ten.
                config.regions = RegionSet::home_only();
                // Short protocol timers so the crashed primary is replaced
                // well inside the window, but strictly ordered and the
                // client's at 3.3 commit latencies (30 ms here).
                // `recovery_points`' 60/40/40 ms over three regions (50 ms
                // latency) is chaotic: a client timer 1.2 latencies long
                // fires spuriously under any queueing, the node and
                // retransmit timers tie, and 100 µs of link jitter then
                // picks between a 146 and a 210 ms outage, and on a quarter
                // of the seeds sets off a retransmission storm that
                // doubles the executor bill (README, "The crash point").
                config.timers.client_timeout = ms(100);
                config.timers.node_timeout = ms(60);
                config.timers.retransmit_timeout = ms(30);
                Some(Workload {
                    name: "crash_primary",
                    config,
                    sim: SimPoint {
                        clients: 1_000,
                        warmup: ms(100),
                        duration: ms(3_000),
                        crash: Some(CrashRestart::of(NodeId(0), ms(1_000), ms(400))),
                    },
                    rt_clients: 64,
                })
            }
            _ => None,
        }
    }

    /// The same workload with the simulated point cut to `clients`
    /// clients and a `duration`-long window after a 20 ms warm-up (smoke
    /// tests; any crash is dropped because it would fall outside).
    #[must_use]
    pub fn shrunk(mut self, clients: usize, duration: SimDuration) -> Workload {
        self.sim = SimPoint {
            clients,
            warmup: SimDuration::from_millis(20),
            duration,
            crash: None,
        };
        self.rt_clients = self.rt_clients.min(clients);
        self
    }

    /// The deployment the thread runtime runs: the simulated one in a
    /// single region (threads model no geography).
    #[must_use]
    pub fn rt_config(&self) -> SystemConfig {
        let mut config = self.config.clone();
        config.regions = RegionSet::home_only();
        config
    }

    /// Simulator parameters of the point for `seed` with `clients`
    /// clients (the ladder reuses the point at other populations).
    #[must_use]
    pub fn sim_params(&self, clients: usize, seed: u64) -> SimParams {
        SimParams {
            duration: self.sim.duration,
            warmup: self.sim.warmup,
            num_clients: clients,
            seed,
            // The default cap (20 M events) is a safety net for tests; the
            // saturated point must never be cut short by it.
            max_events: u64::MAX,
            ..SimParams::default()
        }
    }

    /// The fault plan of a simulated run: seeded link jitter on every
    /// shim ⇄ shim message, plus the workload's crash when `with_crash`.
    #[must_use]
    pub fn fault_plan(&self, with_crash: bool) -> FaultPlan {
        let mut plan = FaultPlan::new().link(LinkRule::all(
            LinkFaults::default().with_delay(1.0, LINK_JITTER),
        ));
        if let (true, Some(crash)) = (with_crash, self.sim.crash) {
            plan = plan.crash(crash);
        }
        plan
    }
}

/// Builds a deployment and reports how long `SystemBuilder::build()`
/// took (record load, key material, role construction) — the `setup_s`
/// sample.
#[must_use]
pub fn build_system(config: &SystemConfig, clients: usize, seed: u64) -> (System, f64) {
    let mut config = config.clone();
    config.workload.num_clients = clients;
    let start = Instant::now();
    let system = SystemBuilder::new(config)
        .clients(clients)
        .seed(seed)
        .build();
    (system, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists_and_validates() {
        for name in NAMES {
            let w = Workload::by_name(name).expect(name);
            assert_eq!(w.name, name);
            w.config.validate().expect("sim config");
            w.rt_config().validate().expect("rt config");
            assert!(w.sim.clients >= w.config.workload.batch_size);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn only_the_crash_workload_schedules_a_crash_inside_its_window() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            let plan = w.fault_plan(true);
            assert_eq!(plan.crashes.len(), usize::from(name == "crash_primary"));
            assert!(w.fault_plan(false).crashes.is_empty());
            if let Some(crash) = w.sim.crash {
                assert!(crash.at > w.sim.warmup);
                assert!(crash.at + crash.restart_after < w.sim.warmup + w.sim.duration);
            }
        }
    }
}
