//! Corruption properties for the cluster wire decoders. `ncsd` and every
//! rank decode bytes straight off the network, so `RvMsg::decode` and
//! `ClusterHello::decode` must turn random bytes, truncated frames and
//! bit-flipped frames into errors, never panics — and any frame they do
//! accept must be the canonical encoding of what they decoded.

use ncs_runtime::{ClusterHello, Member, RvMsg, View, PROTOCOL_VERSION};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One message of every kind, with fields drawn from the inputs.
fn every_kind(n: u32, big: u64, text: &str, ranks: &[u32]) -> Vec<RvMsg> {
    let view = View {
        id: big,
        world: n,
        members: ranks
            .iter()
            .map(|&rank| Member {
                rank,
                addr: text.to_owned(),
                incarnation: n,
            })
            .collect(),
        joined: ranks.to_vec(),
        left: ranks.iter().rev().copied().collect(),
        dead: vec![n],
    };
    vec![
        RvMsg::Register {
            version: PROTOCOL_VERSION,
            world: n,
            rank: n / 2,
            addr: text.to_owned(),
        },
        RvMsg::Roster {
            world: n,
            members: ranks.iter().map(|&r| (r, text.to_owned())).collect(),
        },
        RvMsg::Reject {
            reason: text.to_owned(),
        },
        RvMsg::Telemetry {
            rank: n,
            json: text.repeat(3),
        },
        RvMsg::TelemetryAck,
        RvMsg::Subscribe {
            rank: n,
            incarnation: n ^ 1,
        },
        RvMsg::Heartbeat {
            rank: n,
            seq: big,
            nanos: !big,
        },
        RvMsg::HeartbeatAck {
            seq: big,
            nanos: big / 3,
            view: big / 7,
            suspects: n,
        },
        RvMsg::View { view: view.clone() },
        RvMsg::Leave { rank: n },
        RvMsg::Rejoin {
            version: n,
            world: n,
            rank: n,
            addr: text.to_owned(),
            incarnation: n,
        },
        RvMsg::Replay { view },
    ]
}

/// Decodes `bytes`; whatever is accepted must re-encode to `bytes`.
fn decode_is_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(msg) = RvMsg::decode(bytes) {
        prop_assert_eq!(msg.encode(), bytes.to_vec(), "accepted {:?}", msg);
    }
    if let Ok(hello) = ClusterHello::decode(bytes) {
        prop_assert_eq!(hello.encode(), bytes.to_vec(), "accepted {:?}", hello);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(
        tag in 0u8..16,
        body in vec(any::<u8>(), 0..96),
    ) {
        // A valid tag byte in front gets random bodies past the dispatch.
        let mut bytes = vec![tag];
        bytes.extend(&body);
        decode_is_canonical(&bytes)?;
        decode_is_canonical(&body)?;
    }

    #[test]
    fn truncated_frames_are_rejected(
        n: u32,
        big: u64,
        text in "[a-z0-9.:é]{0,24}",
        ranks in vec(any::<u32>(), 0..6),
        cut: usize,
    ) {
        for msg in every_kind(n, big, &text, &ranks) {
            let bytes = msg.encode();
            prop_assert_eq!(RvMsg::decode(&bytes), Ok(msg.clone()));
            let cut = cut % bytes.len();
            prop_assert!(RvMsg::decode(&bytes[..cut]).is_err(), "{:?} cut at {}", msg, cut);
        }
        let hello = ClusterHello { version: n, rank: n / 3, world: n / 2 }.encode();
        prop_assert!(ClusterHello::decode(&hello[..cut % hello.len()]).is_err());
    }

    #[test]
    fn bit_flipped_frames_never_panic(
        n: u32,
        big: u64,
        text in "[a-z0-9.:é]{0,24}",
        ranks in vec(any::<u32>(), 0..6),
        at: usize,
        bit in 0u8..8,
    ) {
        let hello = ClusterHello { version: PROTOCOL_VERSION, rank: n, world: n }.encode();
        let msgs = every_kind(n, big, &text, &ranks);
        for mut bytes in msgs.iter().map(RvMsg::encode).chain([hello]) {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            decode_is_canonical(&bytes)?;
        }
    }
}
