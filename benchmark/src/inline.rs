//! The inline wall-clock pass: the whole commit flow on one thread.
//!
//! A single-threaded loop-back pops a FIFO of deliveries and times every
//! call into a role (`ShimNode`, `Executor`, `Verifier`, `ClientRole`) as
//! a span: name, start, end, the span whose output caused it, and the
//! batch it belongs to. No scheduler, no channels, no simulated clock —
//! what is left is the CPU the role code itself burns per transaction,
//! which is the budget `rt_tps` and `host_us_per_txn` are made of.
//! Everything outside a role span (cloning broadcasts, queueing, matching
//! on actions) is the loop's own self time, reported as `route`.

use crate::workloads::{build_system, Workload};
use sbft_core::events::{Action, Destination, Envelope, ProtocolMessage};
use sbft_serverless::{ExecuteRequest, ExecutorBehavior};
use sbft_types::{ClientId, ComponentId, ExecutorId, NodeId, SimTime, TxnOutcome};
use sbft_workloads::YcsbWorkload;
use std::collections::VecDeque;
use std::time::Instant;

/// The role a span ran in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A shim node admitting a client request.
    ShimIngest,
    /// A shim node processing a consensus message.
    ShimConsensus,
    /// A shim node processing anything else (or flushing its batcher).
    ShimOther,
    /// An executor validating the certificate and running the batch.
    Executor,
    /// The verifier.
    Verifier,
    /// A client role (submit or response handling).
    Client,
}

impl Role {
    /// Name used in the exported span list.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Role::ShimIngest => "shim.on_client_request",
            Role::ShimConsensus => "shim.on_consensus_message",
            Role::ShimOther => "shim.on_message",
            Role::Executor => "executor.handle_execute",
            Role::Verifier => "verifier.on_message",
            Role::Client => "client",
        }
    }
}

/// One timed call into a role.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which role entry point ran.
    pub role: Role,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the pass began.
    pub end_ns: u64,
    /// Index of the span whose actions led to this call.
    pub parent: Option<u32>,
    /// Batch sequence number when the message names one, else 0.
    pub trace: u64,
}

/// What one inline pass measured.
pub struct InlinePass {
    /// Every role call, in execution order.
    pub spans: Vec<Span>,
    /// Wall time of the whole loop.
    pub total_ns: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted.
    pub aborted: u64,
    /// Batches the verifier validated.
    pub batches: u64,
    /// Consensus messages delivered to shim nodes.
    pub consensus_msgs: u64,
}

impl InlinePass {
    /// Total nanoseconds spent inside spans of the given roles.
    #[must_use]
    pub fn busy_ns(&self, roles: &[Role]) -> u64 {
        self.spans
            .iter()
            .filter(|s| roles.contains(&s.role))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The loop's self time: everything not inside a role span. Role
    /// spans never nest here (each is one leaf call), so this is the
    /// total minus their sum.
    #[must_use]
    pub fn route_ns(&self) -> u64 {
        let in_roles: u64 = self.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        self.total_ns.saturating_sub(in_roles)
    }

    /// Transactions that completed.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.committed + self.aborted
    }

    /// The spans as Chrome `trace_event` JSON (one lane per role).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let lines: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":2,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{},\"batch\":{}}}}}",
                    s.role.name(),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.role as u8,
                    s.parent.map_or(-1, i64::from),
                    s.trace,
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

/// `Message` is nearly every delivery, so it stays unboxed (as in the
/// simulator's own event queue): boxing it would add an allocation per
/// delivery to the loop's self time.
#[allow(clippy::large_enum_variant)]
enum Payload {
    Message {
        from: ComponentId,
        msg: ProtocolMessage,
    },
    Execute(Box<ExecuteRequest>),
}

struct Delivery {
    to: ComponentId,
    payload: Payload,
    parent: Option<u32>,
}

/// The batch a message belongs to, where the message says.
fn trace_of(msg: &ProtocolMessage) -> u64 {
    use sbft_consensus::ConsensusMessage as C;
    match msg {
        ProtocolMessage::Consensus(C::PrePrepare(m)) => m.seq.0,
        ProtocolMessage::Consensus(C::Prepare(m)) => m.seq.0,
        ProtocolMessage::Consensus(C::Commit(m)) => m.seq.0,
        ProtocolMessage::Execute(m) => m.seq.0,
        ProtocolMessage::Verify(m) => m.seq.0,
        ProtocolMessage::Response(m) => m.seq.0,
        ProtocolMessage::Abort(m) => m.seq.0,
        ProtocolMessage::BatchValidated(m) => m.seq.0,
        _ => 0,
    }
}

/// Runs `target_txns` transactions of the workload's thread-runtime
/// deployment through the loop-back with `clients` closed-loop clients.
///
/// # Panics
/// Panics if the flow stalls (the queue drains while clients still wait
/// and flushing the batcher releases nothing) — on a fault-free,
/// timer-free flow that is a bug in a role, not load.
#[must_use]
pub fn run(workload: &Workload, clients: usize, target_txns: u64, seed: u64) -> InlinePass {
    let config = workload.rt_config();
    let (mut system, _) = build_system(&config, clients, seed);
    let mut workload_cfg = config.workload;
    workload_cfg.num_clients = clients;
    let declare = matches!(
        config.conflict_handling,
        sbft_types::ConflictHandling::KnownRwSets
    );
    let mut generator = YcsbWorkload::new(workload_cfg, seed).with_declared_rwsets(declare);
    // Far enough ahead that every lane's batch timeout has expired.
    let flush_at = SimTime::from_micros(u64::MAX / 2);
    let region = config.regions.regions()[0];

    let mut pass = InlinePass {
        spans: Vec::new(),
        total_ns: 0,
        committed: 0,
        aborted: 0,
        batches: 0,
        consensus_msgs: 0,
    };
    let mut queue: VecDeque<Delivery> = VecDeque::new();
    let mut next_executor = 0u64;
    let mut issued = 0u64;
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;

    // Interprets a role's actions: sends fan out into deliveries, spawns
    // become executor deliveries; timers and cost hooks have no meaning
    // on a fault-free wall-clock pass.
    fn dispatch(
        queue: &mut VecDeque<Delivery>,
        nodes: usize,
        origin: ComponentId,
        actions: Vec<Action>,
        parent: Option<u32>,
        completed: &mut Vec<(ClientId, TxnOutcome)>,
    ) {
        for action in actions {
            match action {
                Action::Send(Envelope { from, to, msg }) => match to {
                    Destination::Node(n) => queue.push_back(Delivery {
                        to: ComponentId::Node(n),
                        payload: Payload::Message { from, msg },
                        parent,
                    }),
                    Destination::AllNodes => {
                        for i in 0..nodes as u32 {
                            let to = ComponentId::Node(NodeId(i));
                            if to != origin {
                                queue.push_back(Delivery {
                                    to,
                                    payload: Payload::Message {
                                        from,
                                        msg: msg.clone(),
                                    },
                                    parent,
                                });
                            }
                        }
                    }
                    Destination::Verifier => queue.push_back(Delivery {
                        to: ComponentId::Verifier,
                        payload: Payload::Message { from, msg },
                        parent,
                    }),
                    Destination::Client(c) => queue.push_back(Delivery {
                        to: ComponentId::Client(c),
                        payload: Payload::Message { from, msg },
                        parent,
                    }),
                    Destination::Executor(_) => {}
                },
                Action::SpawnExecutor { execute, .. } => queue.push_back(Delivery {
                    to: ComponentId::Executor(ExecutorId(0)),
                    payload: Payload::Execute(Box::new(execute)),
                    parent,
                }),
                Action::TxnCompleted { txn, outcome } => completed.push((txn.client, outcome)),
                _ => {}
            }
        }
    }

    let n_nodes = system.nodes.len();
    let mut completed: Vec<(ClientId, TxnOutcome)> = Vec::new();
    let record = |pass: &mut InlinePass, role, start_ns, parent, trace| -> u32 {
        pass.spans.push(Span {
            role,
            start_ns,
            end_ns: now_ns(),
            parent,
            trace,
        });
        (pass.spans.len() - 1) as u32
    };

    // Closed loop: every client starts with one request in flight.
    for c in 0..clients as u32 {
        let txn = generator.next_transaction(ClientId(c));
        issued += 1;
        let start = now_ns();
        let actions = system.clients[c as usize].submit(txn);
        let span = record(&mut pass, Role::Client, start, None, 0);
        dispatch(
            &mut queue,
            n_nodes,
            ComponentId::Client(ClientId(c)),
            actions,
            Some(span),
            &mut completed,
        );
    }

    while pass.completed() < target_txns {
        let Some(delivery) = queue.pop_front() else {
            // Idle with clients still waiting: a partial batch is sitting
            // in the primary's batcher. Release it, as the runtimes' batch
            // poll would.
            let mut released = false;
            for i in 0..n_nodes {
                let start = now_ns();
                let actions = system.nodes[i].poll_batcher(flush_at);
                if actions.is_empty() {
                    continue;
                }
                released = true;
                let span = record(&mut pass, Role::ShimOther, start, None, 0);
                let origin = ComponentId::Node(NodeId(i as u32));
                dispatch(
                    &mut queue,
                    n_nodes,
                    origin,
                    actions,
                    Some(span),
                    &mut completed,
                );
            }
            assert!(released, "inline pass stalled with requests outstanding");
            continue;
        };
        let Delivery {
            to,
            payload,
            parent,
        } = delivery;
        match (to, payload) {
            (ComponentId::Node(n), Payload::Message { from, msg }) => {
                let trace = trace_of(&msg);
                let node = &mut system.nodes[n.0 as usize];
                let start = now_ns();
                let (role, actions) = match msg {
                    ProtocolMessage::ClientRequest(req) => (
                        Role::ShimIngest,
                        node.on_client_request(&req, SimTime::ZERO),
                    ),
                    ProtocolMessage::Consensus(c) => {
                        pass.consensus_msgs += 1;
                        let actions = match from.as_node() {
                            Some(sender) => node.on_consensus_message(sender, c),
                            None => Vec::new(),
                        };
                        (Role::ShimConsensus, actions)
                    }
                    other => (Role::ShimOther, node.on_message_at(&other, SimTime::ZERO)),
                };
                let span = record(&mut pass, role, start, parent, trace);
                dispatch(&mut queue, n_nodes, to, actions, Some(span), &mut completed);
            }
            (ComponentId::Executor(_), Payload::Execute(execute)) => {
                let id = ExecutorId(next_executor);
                next_executor += 1;
                let executor = system.make_executor_with(id, region, ExecutorBehavior::Honest);
                let start = now_ns();
                let output = executor.handle_execute(&execute);
                let span = record(&mut pass, Role::Executor, start, parent, execute.seq.0);
                let origin = ComponentId::Executor(id);
                let actions = output
                    .expect("an honest executor accepts an honest EXECUTE")
                    .verify_messages
                    .into_iter()
                    .map(|v| {
                        Action::send(origin, Destination::Verifier, ProtocolMessage::Verify(v))
                    })
                    .collect();
                dispatch(
                    &mut queue,
                    n_nodes,
                    origin,
                    actions,
                    Some(span),
                    &mut completed,
                );
            }
            (ComponentId::Verifier, Payload::Message { msg, .. }) => {
                let trace = trace_of(&msg);
                let start = now_ns();
                let actions = system.verifier.on_message(&msg);
                let span = record(&mut pass, Role::Verifier, start, parent, trace);
                if actions.iter().any(|a| a.sends_kind("BATCH-VALIDATED")) {
                    pass.batches += 1;
                }
                dispatch(
                    &mut queue,
                    n_nodes,
                    ComponentId::Verifier,
                    actions,
                    Some(span),
                    &mut completed,
                );
            }
            (ComponentId::Client(c), Payload::Message { msg, .. }) => {
                let trace = trace_of(&msg);
                let start = now_ns();
                let actions = system.clients[c.0 as usize].on_message(&msg);
                let span = record(&mut pass, Role::Client, start, parent, trace);
                dispatch(&mut queue, n_nodes, to, actions, Some(span), &mut completed);
                for (client, outcome) in std::mem::take(&mut completed) {
                    match outcome {
                        TxnOutcome::Committed => pass.committed += 1,
                        TxnOutcome::Aborted => pass.aborted += 1,
                    }
                    if issued < target_txns {
                        let txn = generator.next_transaction(client);
                        issued += 1;
                        let start = now_ns();
                        let actions = system.clients[client.0 as usize].submit(txn);
                        let span = record(&mut pass, Role::Client, start, Some(span), 0);
                        dispatch(
                            &mut queue,
                            n_nodes,
                            ComponentId::Client(client),
                            actions,
                            Some(span),
                            &mut completed,
                        );
                    }
                }
            }
            _ => {}
        }
    }
    pass.total_ns = now_ns();
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_partition_the_pass_into_roles_and_routing() {
        let pass = InlinePass {
            spans: vec![
                Span {
                    role: Role::Client,
                    start_ns: 0,
                    end_ns: 10,
                    parent: None,
                    trace: 0,
                },
                Span {
                    role: Role::ShimIngest,
                    start_ns: 15,
                    end_ns: 45,
                    parent: Some(0),
                    trace: 0,
                },
                Span {
                    role: Role::Verifier,
                    start_ns: 50,
                    end_ns: 90,
                    parent: Some(1),
                    trace: 7,
                },
            ],
            total_ns: 100,
            committed: 2,
            aborted: 0,
            batches: 1,
            consensus_msgs: 0,
        };
        assert_eq!(pass.busy_ns(&[Role::ShimIngest, Role::ShimConsensus]), 30);
        assert_eq!(pass.busy_ns(&[Role::Verifier]), 40);
        // 100 total − (10 + 30 + 40) in roles.
        assert_eq!(pass.route_ns(), 20);
        let trace = pass.chrome_trace();
        assert!(trace.contains("\"parent\":1,\"batch\":7"));
        assert!(crate::json::Json::parse(&trace).is_ok());
    }
}
