//! The field-mutation table of the PBFT messages.
//!
//! For every kind a replica acts on, a validly authenticated message is
//! built by hand (MACs and signatures come straight from the sender's key,
//! not from the replica's own signing code), then each authenticated field
//! is flipped in turn and the forgery delivered. The genuine message is
//! also delivered from another transport sender than the one it names.
//! None of it may emit an action or move the receiver's view, log, vote
//! tables, reconstruction and transfer state, or `Registry::render()`.
//! Last, the genuine message from its real sender must move something:
//! that is what makes each flip a test.

use super::tests::{batch, TestShim};
use super::PbftReplica;
use crate::actions::ConsensusAction;
use crate::messages::{
    compute_batch_digest, header_digest, BatchFetch, BatchFill, Checkpoint, Commit,
    ConsensusMessage, NewView, PrePrepare, Prepare, PreparedProof, ProposalBody, StateRequest,
    StateResponse, ViewChange,
};
use crate::traits::OrderingProtocol;
use sbft_crypto::certificate::commit_digest;
use sbft_telemetry::Registry;
use sbft_types::{
    Batch, ClientId, ComponentId, Digest, FaultParams, Key, MacTag, NodeId, Operation, SeqNum,
    Signature, SimDuration, Transaction, TxnId, ViewNumber,
};
use std::sync::Arc;

/// One message kind's cases: the receiver, the genuine message with its
/// real transport sender, and the forgeries with the sender each is
/// delivered from.
struct Table {
    kind: &'static str,
    shim: TestShim,
    to: usize,
    genuine: (NodeId, ConsensusMessage),
    forged: Vec<(&'static str, NodeId, ConsensusMessage)>,
}

/// Everything a delivery could move at `r`, printed.
fn snapshot(r: &PbftReplica, registry: &Registry) -> String {
    let pending: Vec<String> = r
        .pending_digest
        .iter()
        .map(|(seq, p)| {
            format!(
                "{seq:?} {:?} {:?} {:?} {:?} {:?} {} {:?}",
                p.view,
                p.digest,
                p.txn_ids,
                p.missing,
                p.received.keys().collect::<Vec<_>>(),
                p.fetch_attempts,
                p.last_filler
            )
        })
        .collect();
    format!(
        "view {:?} in_view_change {} next_seq {:?}\nlog {:?}\ncheckpoint_votes {:?}\n\
         view_change_votes {:?}\npending {pending:?}\nbodies {}\ntransfer {:?}\n\
         blame {:?}\nfloor_claims {:?}\nregistry\n{}",
        r.view,
        r.in_view_change,
        r.next_seq,
        r.log,
        r.checkpoint_votes,
        r.view_change_votes,
        r.body_cache.len(),
        r.state_transfer_attempt,
        r.bad_responses,
        r.floor_claims,
        registry.render()
    )
}

fn mac(shim: &TestShim, node: u32, label: &str, view: u64, seq: u64, digest: &Digest) -> MacTag {
    shim.provider
        .handle(ComponentId::Node(NodeId(node)))
        .broadcast_mac(&header_digest(label, ViewNumber(view), SeqNum(seq), digest))
}

fn sign(shim: &TestShim, node: u32, digest: &Digest) -> Signature {
    shim.provider
        .handle(ComponentId::Node(NodeId(node)))
        .sign(digest)
}

fn other_digest() -> Digest {
    compute_batch_digest(&batch(99))
}

fn pre_prepare() -> Table {
    let shim = TestShim::new(4);
    let b = batch(0);
    let d = compute_batch_digest(&b);
    let genuine = PrePrepare {
        view: ViewNumber(0),
        seq: SeqNum(1),
        digest: d,
        body: ProposalBody::Batch(b),
        mac: mac(&shim, 0, "preprepare", 0, 1, &d),
    };
    let flip = |f: &dyn Fn(&mut PrePrepare)| {
        let mut m = genuine.clone();
        f(&mut m);
        ConsensusMessage::PrePrepare(m)
    };
    let forged = vec![
        ("view", NodeId(0), flip(&|m| m.view = ViewNumber(1))),
        ("seq", NodeId(0), flip(&|m| m.seq = SeqNum(2))),
        ("digest", NodeId(0), flip(&|m| m.digest = other_digest())),
        ("mac", NodeId(0), flip(&|m| m.mac = MacTag::ZERO)),
        (
            "body",
            NodeId(0),
            flip(&|m| m.body = ProposalBody::Batch(batch(99))),
        ),
        (
            "transport sender",
            NodeId(2),
            ConsensusMessage::PrePrepare(genuine.clone()),
        ),
    ];
    Table {
        kind: "PREPREPARE",
        shim,
        to: 1,
        genuine: (NodeId(0), ConsensusMessage::PrePrepare(genuine)),
        forged,
    }
}

fn prepare() -> Table {
    let shim = TestShim::new(4);
    let d = compute_batch_digest(&batch(0));
    let genuine = Prepare {
        view: ViewNumber(0),
        seq: SeqNum(1),
        digest: d,
        sender: NodeId(2),
        mac: mac(&shim, 2, "prepare", 0, 1, &d),
    };
    let flip = |f: &dyn Fn(&mut Prepare)| {
        let mut m = genuine;
        f(&mut m);
        ConsensusMessage::Prepare(m)
    };
    let forged = vec![
        ("view", NodeId(2), flip(&|m| m.view = ViewNumber(1))),
        ("seq", NodeId(2), flip(&|m| m.seq = SeqNum(2))),
        ("digest", NodeId(2), flip(&|m| m.digest = other_digest())),
        ("sender", NodeId(2), flip(&|m| m.sender = NodeId(3))),
        ("mac", NodeId(2), flip(&|m| m.mac = MacTag::ZERO)),
        (
            "transport sender",
            NodeId(3),
            ConsensusMessage::Prepare(genuine),
        ),
    ];
    Table {
        kind: "PREPARE",
        shim,
        to: 1,
        genuine: (NodeId(2), ConsensusMessage::Prepare(genuine)),
        forged,
    }
}

fn commit() -> Table {
    let shim = TestShim::new(4);
    let d = compute_batch_digest(&batch(0));
    let genuine = Commit {
        view: ViewNumber(0),
        seq: SeqNum(1),
        digest: d,
        sender: NodeId(2),
        signature: sign(&shim, 2, &commit_digest(ViewNumber(0), SeqNum(1), &d)),
    };
    let flip = |f: &dyn Fn(&mut Commit)| {
        let mut m = genuine;
        f(&mut m);
        ConsensusMessage::Commit(m)
    };
    let forged = vec![
        ("view", NodeId(2), flip(&|m| m.view = ViewNumber(1))),
        ("seq", NodeId(2), flip(&|m| m.seq = SeqNum(2))),
        ("digest", NodeId(2), flip(&|m| m.digest = other_digest())),
        ("sender", NodeId(2), flip(&|m| m.sender = NodeId(3))),
        (
            "signature",
            NodeId(2),
            flip(&|m| m.signature = Signature::ZERO),
        ),
        (
            "transport sender",
            NodeId(3),
            ConsensusMessage::Commit(genuine),
        ),
    ];
    Table {
        kind: "COMMIT",
        shim,
        to: 1,
        genuine: (NodeId(2), ConsensusMessage::Commit(genuine)),
        forged,
    }
}

fn checkpoint() -> Table {
    let mut shim = TestShim::new(4);
    // Node 3 is kept in the dark while three batches commit, so node 0's
    // checkpoint at seq 4 is news to it.
    shim.dark.insert(NodeId(3));
    for i in 0..3 {
        shim.submit_to_primary(batch(i));
    }
    let certificates: Vec<_> = (1..=3u64)
        .map(|s| {
            let cert = shim
                .certificates
                .iter()
                .find(|c| c.seq == SeqNum(s))
                .expect("certificate");
            Arc::clone(cert)
        })
        .collect();
    let mut genuine = Checkpoint {
        seq: SeqNum(4),
        sender: NodeId(0),
        certificates,
        signature: Signature::ZERO,
    };
    genuine.signature = sign(&shim, 0, &genuine.signing_digest());
    let flip = |f: &dyn Fn(&mut Checkpoint)| {
        let mut m = genuine.clone();
        f(&mut m);
        ConsensusMessage::Checkpoint(m)
    };
    let forged = vec![
        ("seq", NodeId(0), flip(&|m| m.seq = SeqNum(8))),
        ("sender", NodeId(0), flip(&|m| m.sender = NodeId(2))),
        (
            "certificate swapped",
            NodeId(0),
            flip(&|m| m.certificates[0] = Arc::clone(&m.certificates[1])),
        ),
        (
            "certificate dropped",
            NodeId(0),
            flip(&|m| {
                m.certificates.pop();
            }),
        ),
        (
            "signature",
            NodeId(0),
            flip(&|m| m.signature = Signature::ZERO),
        ),
        (
            "transport sender",
            NodeId(2),
            ConsensusMessage::Checkpoint(genuine.clone()),
        ),
    ];
    Table {
        kind: "CHECKPOINT",
        shim,
        to: 3,
        genuine: (NodeId(0), ConsensusMessage::Checkpoint(genuine)),
        forged,
    }
}

fn view_change() -> Table {
    let shim = TestShim::new(4);
    let mut genuine = ViewChange {
        new_view: ViewNumber(1),
        sender: NodeId(1),
        last_stable_seq: SeqNum(0),
        prepared: vec![PreparedProof {
            seq: SeqNum(1),
            digest: compute_batch_digest(&batch(0)),
            view: ViewNumber(0),
        }],
        signature: Signature::ZERO,
    };
    genuine.signature = sign(&shim, 1, &genuine.signing_digest());
    let flip = |f: &dyn Fn(&mut ViewChange)| {
        let mut m = genuine.clone();
        f(&mut m);
        ConsensusMessage::ViewChange(m)
    };
    let forged = vec![
        ("new_view", NodeId(1), flip(&|m| m.new_view = ViewNumber(2))),
        ("sender", NodeId(1), flip(&|m| m.sender = NodeId(3))),
        (
            "last_stable_seq",
            NodeId(1),
            flip(&|m| m.last_stable_seq = SeqNum(4)),
        ),
        (
            "proof seq",
            NodeId(1),
            flip(&|m| m.prepared[0].seq = SeqNum(2)),
        ),
        (
            "proof digest",
            NodeId(1),
            flip(&|m| m.prepared[0].digest = other_digest()),
        ),
        (
            "proof view",
            NodeId(1),
            flip(&|m| m.prepared[0].view = ViewNumber(1)),
        ),
        ("proof dropped", NodeId(1), flip(&|m| m.prepared.clear())),
        (
            "signature",
            NodeId(1),
            flip(&|m| m.signature = Signature::ZERO),
        ),
        (
            "transport sender",
            NodeId(3),
            ConsensusMessage::ViewChange(genuine.clone()),
        ),
    ];
    Table {
        kind: "VIEWCHANGE",
        shim,
        to: 2,
        genuine: (NodeId(1), ConsensusMessage::ViewChange(genuine)),
        forged,
    }
}

fn new_view() -> Table {
    let shim = TestShim::new(4);
    let b = batch(0);
    let d = compute_batch_digest(&b);
    let mut genuine = NewView {
        new_view: ViewNumber(1),
        sender: NodeId(1),
        view_change_senders: vec![NodeId(1), NodeId(2), NodeId(3)],
        reissued: vec![PrePrepare {
            view: ViewNumber(1),
            seq: SeqNum(1),
            digest: d,
            body: ProposalBody::Batch(b),
            mac: mac(&shim, 1, "preprepare", 1, 1, &d),
        }],
        signature: Signature::ZERO,
    };
    genuine.signature = sign(&shim, 1, &genuine.signing_digest());
    let flip = |f: &dyn Fn(&mut NewView)| {
        let mut m = genuine.clone();
        f(&mut m);
        ConsensusMessage::NewView(m)
    };
    let forged = vec![
        ("new_view", NodeId(1), flip(&|m| m.new_view = ViewNumber(5))),
        ("sender", NodeId(1), flip(&|m| m.sender = NodeId(3))),
        (
            "view_change_senders",
            NodeId(1),
            flip(&|m| m.view_change_senders[0] = NodeId(0)),
        ),
        (
            "reissue seq",
            NodeId(1),
            flip(&|m| m.reissued[0].seq = SeqNum(2)),
        ),
        (
            "reissue digest",
            NodeId(1),
            flip(&|m| m.reissued[0].digest = other_digest()),
        ),
        ("reissue dropped", NodeId(1), flip(&|m| m.reissued.clear())),
        (
            "signature",
            NodeId(1),
            flip(&|m| m.signature = Signature::ZERO),
        ),
        (
            "transport sender",
            NodeId(3),
            ConsensusMessage::NewView(genuine.clone()),
        ),
    ];
    Table {
        kind: "NEWVIEW",
        shim,
        to: 2,
        genuine: (NodeId(1), ConsensusMessage::NewView(genuine)),
        forged,
    }
}

fn state_request() -> Table {
    let mut shim = TestShim::new(4);
    shim.submit_to_primary(batch(0));
    let mut genuine = StateRequest {
        sender: NodeId(3),
        above: SeqNum(0),
        signature: Signature::ZERO,
    };
    genuine.signature = sign(&shim, 3, &genuine.signing_digest());
    let flip = |f: &dyn Fn(&mut StateRequest)| {
        let mut m = genuine;
        f(&mut m);
        ConsensusMessage::StateRequest(m)
    };
    let forged = vec![
        ("sender", NodeId(3), flip(&|m| m.sender = NodeId(2))),
        ("above", NodeId(3), flip(&|m| m.above = SeqNum(1))),
        (
            "signature",
            NodeId(3),
            flip(&|m| m.signature = Signature::ZERO),
        ),
        (
            "transport sender",
            NodeId(2),
            ConsensusMessage::StateRequest(genuine),
        ),
    ];
    Table {
        kind: "STATEREQUEST",
        shim,
        to: 1,
        genuine: (NodeId(3), ConsensusMessage::StateRequest(genuine)),
        forged,
    }
}

fn batch_fetch() -> Table {
    let mut shim = TestShim::new(4);
    let b = batch(0);
    let d = compute_batch_digest(&b);
    shim.submit_to_primary(b.clone());
    let genuine = BatchFetch {
        sender: NodeId(2),
        view: ViewNumber(0),
        seq: SeqNum(1),
        digest: d,
        missing: b.txn_ids(),
        mac: mac(&shim, 2, "batchfetch", 0, 1, &d),
    };
    let flip = |f: &dyn Fn(&mut BatchFetch)| {
        let mut m = genuine.clone();
        f(&mut m);
        ConsensusMessage::BatchFetch(m)
    };
    let forged = vec![
        ("sender", NodeId(2), flip(&|m| m.sender = NodeId(3))),
        ("view", NodeId(2), flip(&|m| m.view = ViewNumber(1))),
        ("seq", NodeId(2), flip(&|m| m.seq = SeqNum(2))),
        ("digest", NodeId(2), flip(&|m| m.digest = other_digest())),
        ("mac", NodeId(2), flip(&|m| m.mac = MacTag::ZERO)),
        (
            "transport sender",
            NodeId(3),
            ConsensusMessage::BatchFetch(genuine.clone()),
        ),
    ];
    Table {
        kind: "BATCHFETCH",
        shim,
        to: 0,
        genuine: (NodeId(2), ConsensusMessage::BatchFetch(genuine)),
        forged,
    }
}

fn batch_fill() -> Table {
    let mut shim = TestShim::new_digest(4);
    let b = Batch::new(
        (0..3u64)
            .map(|i| Transaction::new(TxnId::new(ClientId(1), i), vec![Operation::Read(Key(i))]))
            .collect(),
    );
    // Node 1 holds two bodies of three, so the proposal leaves it one to
    // fetch.
    for txn in &b.txns()[..2] {
        let _ = shim.replicas[1].offer_body(txn.clone());
    }
    let proposal = shim.replicas[0]
        .submit_batch(b.clone())
        .into_iter()
        .find_map(|a| match a {
            ConsensusAction::Broadcast(m @ ConsensusMessage::PrePrepare(_)) => Some(m),
            _ => None,
        })
        .expect("node 0 proposes");
    let _ = shim.replicas[1].handle_message(NodeId(0), proposal);
    let genuine = BatchFill {
        sender: NodeId(0),
        seq: SeqNum(1),
        digest: compute_batch_digest(&b),
        bodies: b.txns()[2..].to_vec(),
    };
    let forged = vec![(
        "transport sender",
        NodeId(2),
        ConsensusMessage::BatchFill(genuine.clone()),
    )];
    Table {
        kind: "BATCHFILL",
        shim,
        to: 1,
        genuine: (NodeId(0), ConsensusMessage::BatchFill(genuine)),
        forged,
    }
}

fn state_response() -> Table {
    let mut shim = TestShim::new(4);
    shim.submit_to_primary(batch(0));
    let mut req = StateRequest {
        sender: NodeId(3),
        above: SeqNum(0),
        signature: Signature::ZERO,
    };
    req.signature = sign(&shim, 3, &req.signing_digest());
    let genuine: StateResponse = shim.replicas[2]
        .handle_message(NodeId(3), ConsensusMessage::StateRequest(req))
        .into_iter()
        .find_map(|a| match a {
            ConsensusAction::Send(_, ConsensusMessage::StateResponse(r)) => Some(r),
            _ => None,
        })
        .expect("node 2 answers");
    // Node 3 lost everything in a crash.
    shim.replicas[3] = PbftReplica::new(
        NodeId(3),
        FaultParams::for_shim_size(4),
        shim.provider.handle(ComponentId::Node(NodeId(3))),
        SimDuration::from_millis(100),
        4,
    );
    let forged = vec![(
        "transport sender",
        NodeId(1),
        ConsensusMessage::StateResponse(genuine.clone()),
    )];
    Table {
        kind: "STATERESPONSE",
        shim,
        to: 3,
        genuine: (NodeId(2), ConsensusMessage::StateResponse(genuine)),
        forged,
    }
}

#[test]
fn a_forged_consensus_message_moves_nothing() {
    let tables = [
        pre_prepare(),
        prepare(),
        commit(),
        checkpoint(),
        view_change(),
        new_view(),
        state_request(),
        batch_fetch(),
        batch_fill(),
        state_response(),
    ];
    for table in tables {
        let Table {
            kind,
            mut shim,
            to,
            genuine,
            forged,
        } = table;
        let registry = Registry::new();
        let replica = &mut shim.replicas[to];
        replica.register_metrics(&registry, "shim");
        let before = snapshot(replica, &registry);
        for (field, from, msg) in forged {
            assert_eq!(msg.kind(), kind);
            let actions = replica.handle_message(from, msg);
            assert!(
                actions.is_empty(),
                "{kind} with a forged {field} emitted {actions:?}"
            );
            assert_eq!(
                snapshot(replica, &registry),
                before,
                "{kind} with a forged {field} moved the receiver"
            );
        }
        let (from, msg) = genuine;
        let actions = replica.handle_message(from, msg);
        assert!(
            !actions.is_empty() || snapshot(replica, &registry) != before,
            "the genuine {kind} must move the receiver, or its forgeries test nothing"
        );
    }
}
