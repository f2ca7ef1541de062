//! Golden bytes: digests, a signature and a MAC pinned from the commit
//! before the hashing layer was rebuilt (hardware SHA-256 kernel, one-shot
//! padding, HMAC midstates). Every figure the simulator prints hangs on
//! these bytes — digests pick quorums, signatures gate every hop — so
//! "outputs are byte-identical" is checked here rather than asserted in
//! prose. A change that moves any of them changes the wire format.
//!
//! The request and batch digests were re-pinned when they came to bind
//! every field of a transaction (written values, salts, the declared set,
//! cost and payload). The commit, `PREPARE`, signature and MAC pins are
//! still taken over the batch digest of before ([`DELTA_BEFORE_BINDING`]),
//! so they keep their bytes from before the rebuild and keep guarding the
//! SHA-256 and HMAC kernels. The signature pin moved once since, when a
//! signature became one HMAC and a zero half: it is the first half of the
//! old pin (the same `HMAC(k, d)`) followed by 32 zero bytes.

use serverless_bft::consensus::messages::{compute_batch_digest, header_digest};
use serverless_bft::core::ClientRequest;
use serverless_bft::crypto::certificate::commit_digest;
use serverless_bft::crypto::CryptoProvider;
use serverless_bft::types::{
    Batch, ClientId, ComponentId, Digest, Key, NodeId, Operation, SeqNum, Transaction, TxnId,
    Value, ViewNumber,
};

/// The batch digest of the batch below while it bound only ids, keys and
/// write flags: the input of the pins that predate the binding.
const DELTA_BEFORE_BINDING: &str =
    "18b746b74be7fb4ddf79a76143d63dae7851d0c0dcf3abd96b0fa52a05cb0e9c";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Digest {
    let mut bytes = [0u8; 32];
    for (byte, pair) in bytes.iter_mut().zip(hex.as_bytes().chunks(2)) {
        *byte = u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
    }
    Digest::from_bytes(bytes)
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
    let request = ClientRequest::signing_digest(&txn(2));
    assert_eq!(
        hex(request.as_bytes()),
        "8078ec17405506c6fb85c178709c63cb82b7001262e7ce43b5aedc1f397a9fc1",
        "ClientRequest::signing_digest"
    );

    let batch = Batch::new((0..11).map(txn).collect());
    assert_eq!(
        hex(compute_batch_digest(&batch).as_bytes()),
        "199a02a3b915438eca07f20e1484de2fd51c388d16df58e42c169580b99bc075",
        "Batch digest"
    );

    let batch_digest = from_hex(DELTA_BEFORE_BINDING);

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

    let provider = CryptoProvider::new(1234);
    let signer = ComponentId::Node(NodeId(2));
    let node = provider.handle(signer);
    let signature = node.sign(&commit);
    assert_eq!(hex(&signature.0), "96319d001399a181b2b9dbf875fa9a6ee49ca3e593c262892a6d8f7fb290a8930000000000000000000000000000000000000000000000000000000000000000", "SimSigner signature");
    let mac = node.mac_for(ComponentId::Node(NodeId(0)), &prepare);
    assert_eq!(
        hex(&mac.0),
        "93fd3480bf0084ee03222f403805ea197b9ec7823f3765843abe1ec6d8b7434e",
        "pairwise MAC"
    );
}
