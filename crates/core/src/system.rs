//! Assembly of a full serverless-edge deployment.
//!
//! [`SystemBuilder`] turns a [`SystemConfig`] into a [`System`]: the YCSB
//! table, the crypto provider, the clients, the shim nodes (running PBFT,
//! the CFT baseline or the NoShim baseline), the verifier, the serverless
//! cloud and the attack injector. The discrete-event simulator
//! (`sbft-sim`) and the thread runtime (`sbft-runtime`) both start from a
//! `System`.

use crate::attacks::{AttackInjector, ShimAttack};
use crate::client::ClientRole;
use crate::shim::ShimNode;
use crate::verifier::{Verifier, VerifierConfig};
use sbft_consensus::{CftReplica, NoShim};
use sbft_crypto::CryptoProvider;
use sbft_serverless::cloud::CloudFaultPlan;
use sbft_serverless::{Executor, ExecutorBehavior, RegionOutage, ServerlessCloud};
use sbft_storage::{StorageReader, VersionedStore, YcsbTable};
use sbft_telemetry::Registry;
use sbft_types::{ClientId, ComponentId, ExecutorId, NodeId, Region, SimDuration, SystemConfig};
use std::sync::Arc;

/// Which ordering protocol the shim runs (Figure 7 baselines).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ShimProtocol {
    /// ServerlessBFT with PBFT at the shim (the paper's design).
    #[default]
    Pbft,
    /// The `ServerlessCFT` baseline (Multi-Paxos-style shim).
    Cft,
    /// The `NoShim` baseline (no consensus, a single node spawns).
    NoShim,
}

/// A fully assembled deployment.
pub struct System {
    /// The configuration the system was built from.
    pub config: SystemConfig,
    /// Which shim protocol is in use.
    pub protocol: ShimProtocol,
    /// Deployment-wide cryptographic material.
    pub provider: Arc<CryptoProvider>,
    /// The on-premise data-store (already populated).
    pub storage: Arc<VersionedStore>,
    /// The client roles.
    pub clients: Vec<ClientRole>,
    /// The shim nodes.
    pub nodes: Vec<ShimNode>,
    /// The trusted verifier.
    pub verifier: Verifier,
    /// The serverless cloud control plane.
    pub cloud: ServerlessCloud,
    /// The byzantine-attack injector.
    pub injector: AttackInjector,
    /// The deployment-wide metrics namespace: every component's counters
    /// are registered here at build time (see `OBSERVABILITY.md` for the
    /// naming conventions), so run harnesses read final values through it.
    pub registry: Arc<Registry>,
}

impl System {
    /// The shim node currently acting as primary.
    #[must_use]
    pub fn primary(&self) -> NodeId {
        self.nodes[0].primary()
    }

    /// The commit-certificate quorum executors and the verifier enforce
    /// (0 for the baselines).
    #[must_use]
    pub fn cert_quorum(&self) -> usize {
        match self.protocol {
            ShimProtocol::Pbft => self.config.fault.shim_quorum(),
            _ => 0,
        }
    }

    /// Builds an executor with an explicit identity/region/behaviour (used
    /// by tests and by the thread runtime's executor pool).
    #[must_use]
    pub fn make_executor_with(
        &self,
        id: ExecutorId,
        region: Region,
        behavior: ExecutorBehavior,
    ) -> Executor {
        Executor::new(
            id,
            region,
            behavior,
            self.provider.handle(ComponentId::Executor(id)),
            StorageReader::new(Arc::clone(&self.storage)),
            self.config.fault.n_r,
            self.cert_quorum(),
        )
    }
}

/// Builder for [`System`].
pub struct SystemBuilder {
    config: SystemConfig,
    protocol: ShimProtocol,
    seed: u64,
    num_clients: usize,
    attacks: Vec<(NodeId, ShimAttack)>,
    cloud_fault_plan: CloudFaultPlan,
    cloud_concurrency_limit: usize,
    region_outage: RegionOutage,
}

impl SystemBuilder {
    /// Starts a builder from a configuration.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        let num_clients = config.workload.num_clients;
        SystemBuilder {
            config,
            protocol: ShimProtocol::Pbft,
            seed: 42,
            num_clients,
            attacks: Vec::new(),
            cloud_fault_plan: CloudFaultPlan::default(),
            cloud_concurrency_limit: usize::MAX / 2,
            region_outage: RegionOutage::none(),
        }
    }

    /// Selects the shim ordering protocol.
    #[must_use]
    pub fn protocol(mut self, protocol: ShimProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the deterministic seed used for key material.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of client roles to instantiate.
    #[must_use]
    pub fn clients(mut self, num_clients: usize) -> Self {
        self.num_clients = num_clients.max(1);
        self
    }

    /// Compromises a shim node with an attack.
    #[must_use]
    pub fn attack(mut self, node: NodeId, attack: ShimAttack) -> Self {
        self.attacks.push((node, attack));
        self
    }

    /// Configures byzantine executors at the cloud.
    #[must_use]
    pub fn cloud_faults(mut self, plan: CloudFaultPlan) -> Self {
        self.cloud_fault_plan = plan;
        self
    }

    /// Limits how many executors may run in parallel (the provider's
    /// concurrency limit; the paper was capped at 21).
    #[must_use]
    pub fn cloud_concurrency_limit(mut self, limit: usize) -> Self {
        self.cloud_concurrency_limit = limit.max(1);
        self
    }

    /// Injects a region-outage scenario: the cloud rejects spawns into
    /// the downed regions and every shim node's invoker is informed, so
    /// plan-aware placement falls back deterministically.
    #[must_use]
    pub fn region_outage(mut self, outage: RegionOutage) -> Self {
        self.region_outage = outage;
        self
    }

    /// Assembles the system.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    #[must_use]
    pub fn build(self) -> System {
        self.config
            .validate()
            .expect("invalid system configuration");
        let provider = CryptoProvider::new(self.seed);
        // Every client's first signature is checked in the burst at t = 0.
        provider.reserve_signers(self.num_clients);
        let table = YcsbTable::populate(self.config.workload.num_records);
        let storage = Arc::clone(table.store());

        // Shim nodes.
        let n_nodes = match self.protocol {
            ShimProtocol::NoShim => 1,
            _ => self.config.fault.n_r,
        };
        let mut nodes: Vec<ShimNode> = (0..n_nodes as u32)
            .map(|i| {
                let id = NodeId(i);
                let config = self.config.clone();
                let crypto = provider.handle(ComponentId::Node(id));
                match self.protocol {
                    ShimProtocol::Pbft => ShimNode::pbft(id, config, crypto),
                    ShimProtocol::Cft => {
                        let replica = CftReplica::new(id, config.fault, config.timers.node_timeout);
                        ShimNode::new(id, config, crypto, Box::new(replica))
                    }
                    ShimProtocol::NoShim => {
                        ShimNode::new(id, config, crypto, Box::new(NoShim::new(id)))
                    }
                }
            })
            .collect();

        // Verifier.
        /// Abort-detection timer: started on the first `VERIFY` message of
        /// a batch whose transactions may conflict (Section VI-B).
        const VERIFIER_ABORT_TIMEOUT: SimDuration = SimDuration::from_millis(800);
        let cert_quorum = match self.protocol {
            ShimProtocol::Pbft => self.config.fault.shim_quorum(),
            _ => 0,
        };
        let verifier = Verifier::new(
            provider.handle(ComponentId::Verifier),
            Arc::clone(&storage),
            VerifierConfig {
                params: self.config.fault,
                conflict_handling: self.config.conflict_handling,
                abort_timeout: VERIFIER_ABORT_TIMEOUT,
                cert_quorum,
                spawned_per_batch: self.config.spawned_per_batch(),
                sharding: self.config.sharding,
                checkpoint_interval: self.config.timers.checkpoint_interval,
            },
        );

        // Clients.
        let primary = nodes[0].primary();
        let clients = (0..self.num_clients as u32)
            .map(|i| {
                ClientRole::new(
                    ClientId(i),
                    provider.handle(ComponentId::Client(ClientId(i))),
                    primary,
                    self.config.timers.client_timeout,
                )
            })
            .collect();

        // Cloud.
        let mut cloud = ServerlessCloud::with_limits(
            self.cloud_concurrency_limit,
            sbft_serverless::cloud::DEFAULT_COLD_START,
        );
        cloud.set_fault_plan(self.cloud_fault_plan);
        if self.region_outage.is_active() {
            for region in self.region_outage.regions() {
                for node in &mut nodes {
                    node.mark_region_down(region);
                }
            }
            cloud.set_region_outage(self.region_outage);
        }

        // Attacks.
        let mut injector = AttackInjector::new(self.config.fault.n_r);
        for (node, attack) in self.attacks {
            injector.compromise(node, attack);
        }

        // Metrics: every component re-homes its counters into the shared
        // registry so run harnesses read final values in one place.
        let registry = Arc::new(Registry::new());
        let mut verifier = verifier;
        verifier.register_metrics(&registry);
        for node in &mut nodes {
            node.register_metrics(&registry);
        }

        System {
            config: self.config,
            protocol: self.protocol,
            provider,
            storage,
            clients,
            nodes,
            verifier,
            cloud,
            injector,
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.workload.num_records = 200;
        cfg.workload.num_clients = 4;
        cfg
    }

    #[test]
    fn builder_assembles_all_components() {
        let system = SystemBuilder::new(small_config()).clients(4).build();
        assert_eq!(system.nodes.len(), 4);
        assert_eq!(system.clients.len(), 4);
        assert_eq!(system.storage.len(), 200);
        assert_eq!(system.primary(), NodeId(0));
        assert_eq!(system.cert_quorum(), 3);
        assert_eq!(system.verifier.kmax(), sbft_types::SeqNum(1));
    }

    #[test]
    fn noshim_deploys_a_single_node() {
        let system = SystemBuilder::new(small_config())
            .protocol(ShimProtocol::NoShim)
            .clients(2)
            .build();
        assert_eq!(system.nodes.len(), 1);
        assert_eq!(system.cert_quorum(), 0);
        assert_eq!(system.nodes[0].protocol_name(), "NoShim");
    }

    #[test]
    fn cft_nodes_report_their_protocol() {
        let system = SystemBuilder::new(small_config())
            .protocol(ShimProtocol::Cft)
            .clients(2)
            .build();
        assert_eq!(system.nodes.len(), 4);
        assert_eq!(system.nodes[0].protocol_name(), "CFT");
        assert_eq!(system.cert_quorum(), 0);
    }

    #[test]
    fn attacks_are_registered_with_the_injector() {
        let system = SystemBuilder::new(small_config())
            .attack(NodeId(0), ShimAttack::SuppressRequests)
            .build();
        assert_eq!(system.injector.compromised(), 1);
        assert!(system.injector.attack_of(NodeId(0)).is_some());
    }

    #[test]
    fn executors_built_from_spawn_outcomes_use_registered_identities() {
        let mut system = SystemBuilder::new(small_config()).build();
        let outcome = system
            .cloud
            .spawn(sbft_serverless::SpawnRequest {
                spawner: NodeId(0),
                region: Region::Oregon,
                seq: sbft_types::SeqNum(1),
            })
            .unwrap();
        let executor =
            system.make_executor_with(outcome.executor, outcome.region, outcome.behavior);
        assert_eq!(executor.id(), outcome.executor);
        assert_eq!(executor.region(), Region::Oregon);
        assert_eq!(executor.behavior(), ExecutorBehavior::Honest);
    }

    #[test]
    #[should_panic(expected = "invalid system configuration")]
    fn invalid_config_panics_at_build_time() {
        let mut cfg = small_config();
        cfg.workload.batch_size = 0;
        let _ = SystemBuilder::new(cfg).build();
    }
}
