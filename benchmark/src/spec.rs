//! The metric catalogue: every name the benchmark may print, with its
//! unit, its direction and — for end-to-end metrics — the regression
//! bound. `BENCHMARK.json` at the repository root carries the same
//! tables for the acceptance driver; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name; the prefix names the clock (`sim_`, `host_`, `rt_`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// On the simulated clock: the value repeats bit for bit per seed.
    pub simulated: bool,
}

/// A metric of one layer (crate); no bound.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload with `--trace 0`.
///
/// Bounds: each is at least three times the widest inter-quartile
/// spread the metric showed over ten seeds on any workload (README,
/// "Steadiness"). Simulated-clock values repeat bit for bit per seed, but
/// the acceptance driver compares medians over *different* seeds, so
/// even their bounds sit above the seed-to-seed spread. Between two
/// result files of one seed `compare` holds them to
/// [`SAME_SEED_SIM_BOUND`] instead.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "sim_commit_p50_ms",
        unit: "sim_ms",
        better: Lower,
        bound: 0.03,
        simulated: true,
    },
    EndToEnd {
        name: "sim_commit_p99_ms",
        unit: "sim_ms",
        better: Lower,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "sim_tps",
        unit: "txn/sim_s",
        better: Higher,
        bound: 0.08,
        simulated: true,
    },
    EndToEnd {
        name: "cents_per_ktxn",
        unit: "cents",
        better: Lower,
        bound: 0.10,
        simulated: true,
    },
    EndToEnd {
        name: "outage_ms",
        unit: "sim_ms",
        better: Lower,
        bound: 0.25,
        simulated: true,
    },
    EndToEnd {
        name: "host_us_per_txn",
        unit: "us",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "rt_tps",
        unit: "txn/s",
        better: Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
];

/// Bound of a simulated-clock metric when both sides ran the same seed
/// for the same time: nothing but the code can have moved it.
pub const SAME_SEED_SIM_BOUND: f64 = 0.01;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// The per-layer metrics, reported by every workload with `--trace 1`.
/// The prefix is the crate the number belongs to.
pub const PER_LAYER: [Layer; 85] = [
    layer("workloads.gen_ns_per_txn", "ns", Lower),
    layer("types.batch_digest_ns_per_txn", "ns", Lower),
    layer("types.batch_clone_ns", "ns", Lower),
    layer("types.wire_bytes_per_txn", "B", Lower),
    layer("crypto.sha256_ns_per_byte", "ns", Lower),
    layer("crypto.sign_ns", "ns", Lower),
    layer("crypto.verify_ns", "ns", Lower),
    layer("crypto.mac_ns", "ns", Lower),
    layer("crypto.aggregate_verify_ns_per_txn", "ns", Lower),
    layer("crypto.certificate_verify_ns", "ns", Lower),
    layer("storage.get_ns", "ns", Lower),
    layer("storage.put_ns", "ns", Lower),
    layer("storage.occ_validate_ns_per_access", "ns", Lower),
    layer("storage.load_ns_per_record", "ns", Lower),
    layer("durability.memwal_append_ns", "ns", Lower),
    layer("durability.filewal_append_ns", "ns", Lower),
    layer("durability.filewal_sync_us", "us", Lower),
    layer("durability.replay_ns_per_record", "ns", Lower),
    layer("durability.wal_appends_per_batch", "count", Lower),
    layer("durability.replay_batches", "count", Lower),
    layer("durability.state_transfer_batches", "count", Lower),
    layer("durability.tps_vs_nocrash", "ratio", Higher),
    layer("consensus.batcher_push_ns_per_txn", "ns", Lower),
    layer("consensus.pbft_order_us_per_batch", "us", Lower),
    layer("consensus.msgs_per_batch", "count", Lower),
    layer("consensus.batch_wait_p50_us", "sim_us", Lower),
    layer("consensus.batch_wait_p99_us", "sim_us", Lower),
    layer("consensus.ordering_p50_us", "sim_us", Lower),
    layer("consensus.ordering_p99_us", "sim_us", Lower),
    layer("consensus.leader_egress_bytes_per_txn", "B", Lower),
    layer("consensus.released_full_share", "ratio", Higher),
    layer("serverless.execute_us_per_batch", "us", Lower),
    layer("serverless.spawn_p50_us", "sim_us", Lower),
    layer("serverless.execute_p50_us", "sim_us", Lower),
    layer("serverless.execute_p99_us", "sim_us", Lower),
    layer("serverless.spawns_per_batch", "count", Lower),
    layer("serverless.spawns_rejected", "count", Lower),
    layer("serverless.busy_ms_per_ktxn", "sim_ms", Lower),
    layer("core.shim_ingest_ns_per_txn", "ns", Lower),
    layer("core.verifier_us_per_batch", "us", Lower),
    layer("core.planner_route_ns_per_key", "ns", Lower),
    layer("core.verify_p50_us", "sim_us", Lower),
    layer("core.verify_p99_us", "sim_us", Lower),
    layer("core.respond_p50_us", "sim_us", Lower),
    layer("core.divergent_aborts", "count", Lower),
    layer("core.ignored_verifies", "count", Lower),
    layer("core.abort_share", "ratio", Lower),
    layer("sharding.apply_tps_w1", "txn/s", Higher),
    layer("sharding.apply_tps_w2", "txn/s", Higher),
    layer("sharding.apply_scaling", "ratio", Higher),
    layer("sharding.committer_ns_per_txn", "ns", Lower),
    layer("sharding.router_ns_per_key", "ns", Lower),
    layer("sharding.apply_p50_us", "sim_us", Lower),
    layer("sharding.apply_p99_us", "sim_us", Lower),
    layer("sharding.cross_shard_share", "ratio", Lower),
    layer("sim.host_ns_per_message", "ns", Lower),
    layer("sim.sim_s_per_host_s", "ratio", Higher),
    layer("sim.half_load_tps", "txn/sim_s", Higher),
    layer("sim.half_load_p99_ms", "sim_ms", Lower),
    layer("sim.load_scaling", "ratio", Higher),
    layer("sim.commit_mean_ms", "sim_ms", Lower),
    layer("sim.model_ratio_per_byte", "ratio", Lower),
    layer("sim.model_ratio_storage_access", "ratio", Lower),
    layer("sim.model_ratio_routing_per_key", "ratio", Lower),
    layer("sim.model_ratio_wal_byte", "ratio", Lower),
    layer("sim.model_ratio_fsync", "ratio", Lower),
    layer("runtime.shim_busy_us_per_txn", "us", Lower),
    layer("runtime.executor_busy_us_per_txn", "us", Lower),
    layer("runtime.verifier_busy_us_per_txn", "us", Lower),
    layer("runtime.client_busy_us_per_txn", "us", Lower),
    layer("runtime.route_us_per_txn", "us", Lower),
    layer("runtime.inline_us_per_txn", "us", Lower),
    layer("runtime.rt_commit_mean_us", "us", Lower),
    layer("runtime.rt_batch_txns_mean", "count", Higher),
    layer("runtime.rt_ordering_p50_us", "us", Lower),
    layer("runtime.rt_execute_p50_us", "us", Lower),
    layer("runtime.rt_verify_p50_us", "us", Lower),
    layer("runtime.rt_e2e_p50_us", "us", Lower),
    layer("runtime.rt_e2e_p99_us", "us", Lower),
    layer("telemetry.histogram_record_ns", "ns", Lower),
    layer("telemetry.tracer_off_emit_ns", "ns", Lower),
    layer("telemetry.tracer_on_emit_ns", "ns", Lower),
    layer("telemetry.sim_trace_overhead_share", "ratio", Lower),
    layer("telemetry.rt_trace_overhead_share", "ratio", Lower),
    layer("telemetry.sim_trace_backward_share", "ratio", Lower),
];

/// The unit and direction of any catalogued metric.
#[must_use]
pub fn lookup(name: &str) -> Option<(&'static str, Better)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.better))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(workloads::NAMES.iter().map(|n| (*n, "count")))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables
    /// above are what the program prints. They must agree line for line.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_owned);

        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let why = field(w, "why").expect("why");
                assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
                field(w, "name").expect("name")
            })
            .collect();
        assert_eq!(names, workloads::NAMES);

        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, spec) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(json, "name").as_deref(), Some(spec.name));
            assert_eq!(
                field(json, "unit").as_deref(),
                Some(spec.unit),
                "{}",
                spec.name
            );
            assert_eq!(field(json, "better").as_deref(), Some(spec.better.word()));
            assert_eq!(json.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, spec) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(json, "name").as_deref(), Some(spec.name));
            assert_eq!(
                field(json, "unit").as_deref(),
                Some(spec.unit),
                "{}",
                spec.name
            );
            assert_eq!(field(json, "better").as_deref(), Some(spec.better.word()));
        }
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    }
}
