//! Golden bytes: digests, a signature and a MAC pinned from the commit
//! before the hashing layer was rebuilt (hardware SHA-256 kernel, one-shot
//! padding, HMAC midstates). Every figure the simulator prints hangs on
//! these bytes — digests pick quorums, signatures gate every hop — so
//! "outputs are byte-identical" is checked here rather than asserted in
//! prose. A change that moves any of them changes the wire format.

use serverless_bft::consensus::messages::{compute_batch_digest, header_digest};
use serverless_bft::core::ClientRequest;
use serverless_bft::crypto::certificate::commit_digest;
use serverless_bft::crypto::{CryptoProvider, KeyStore, SimSigner};
use serverless_bft::types::{
    Batch, ClientId, ComponentId, Key, NodeId, Operation, SeqNum, Transaction, TxnId, Value,
    ViewNumber,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Transaction `i` of client 7: `1 + i % 3` operations, so the batch
/// below crosses several SHA-256 block boundaries at uneven offsets.
fn txn(i: u64) -> Transaction {
    let ops = (0..=i % 3)
        .map(|j| match j {
            0 => Operation::Read(Key(1_000 * i + 1)),
            1 => Operation::ReadModifyWrite(Key(1_000 * i + 2), 5),
            _ => Operation::Write(Key(1_000 * i + 3), Value::default()),
        })
        .collect();
    Transaction::new(TxnId::new(ClientId(7), 40 + i), ops)
}

#[test]
fn digests_signatures_and_macs_match_the_bytes_pinned_before_the_rebuild() {
    let request = ClientRequest::compute_signing_digest(&txn(2));
    assert_eq!(
        hex(request.as_bytes()),
        "7d4bff2ee7575f048dc563dfa7bd18fc7fea17da6c4a287a464a55cdd6272706",
        "ClientRequest::signing_digest"
    );

    let batch = Batch::new((0..11).map(txn).collect());
    let batch_digest = compute_batch_digest(&batch);
    assert_eq!(
        hex(batch_digest.as_bytes()),
        "18b746b74be7fb4ddf79a76143d63dae7851d0c0dcf3abd96b0fa52a05cb0e9c",
        "Batch digest"
    );

    let commit = commit_digest(ViewNumber(3), SeqNum(17), &batch_digest);
    assert_eq!(
        hex(commit.as_bytes()),
        "55fd4f008fa2cc43610ca496791fe37d018327b25c15bff0fac56a2651e71f65",
        "CommitCertificate digest"
    );
    let prepare = header_digest("sbft-prepare", ViewNumber(3), SeqNum(17), &batch_digest);
    assert_eq!(
        hex(prepare.as_bytes()),
        "e3243f635113a58f36d99032a843151ffa31d3776da0dd879755a927ac2df079",
        "PREPARE header digest"
    );

    let store = KeyStore::new(1234);
    let signer = ComponentId::Node(NodeId(2));
    let signature = SimSigner::sign(&store.keypair_for(signer), &commit);
    assert_eq!(hex(&signature.0), "96319d001399a181b2b9dbf875fa9a6ee49ca3e593c262892a6d8f7fb290a893a29dead33b96953f8ec5085a4c2518ba7738ddc070c60f198dfdeb2cebc1bc91", "SimSigner signature");

    let provider = CryptoProvider::new(1234);
    let node = provider.handle(signer);
    assert_eq!(node.sign(&commit), signature, "cached-schedule signature");
    let mac = node.mac_for(ComponentId::Node(NodeId(0)), &prepare);
    assert_eq!(
        hex(&mac.0),
        "93fd3480bf0084ee03222f403805ea197b9ec7823f3765843abe1ec6d8b7434e",
        "pairwise MAC"
    );
}
