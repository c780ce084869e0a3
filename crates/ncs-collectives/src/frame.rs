//! The collective wire frame.
//!
//! Every collective message is one or more `CollFrame`s carried as
//! ordinary NCS message payloads over the group's pairwise connections —
//! so segmentation, flow control and error control below this layer are
//! exactly the point-to-point machinery (paper §3), reused unchanged.
//!
//! A frame addresses a *segment stream*: `(coll, stream)` identifies one
//! logical transfer inside one collective operation (e.g. the reduce phase
//! and the broadcast phase of an allreduce are distinct streams), and
//! `seg`/`total` sequence the pipeline segments of that transfer.

use std::sync::Arc;

use ncs_core::{BufPool, PooledBuf};

pub(crate) const TAG_COLL: u8 = 0xB3;

/// Encoded header size: tag + group + coll + stream + seg + total + len.
pub(crate) const COLL_OVERHEAD: usize = 1 + 4 + 4 + 4 + 4 + 4 + 4;

/// A decoded collective segment. The original frame bytes are retained so
/// forwarding nodes (tree and ring relays) re-transmit them verbatim —
/// no decode/re-encode round trip on the store-and-forward path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seg {
    /// The operation's sequence number within the group.
    pub coll: u32,
    /// The transfer within the operation.
    pub stream: u32,
    /// This segment's index.
    pub seg: u32,
    /// Segments in the transfer.
    pub total: u32,
    /// The complete received frame (header + payload).
    pub raw: Vec<u8>,
}

impl Seg {
    /// The segment's payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.raw[COLL_OVERHEAD..]
    }
}

/// Encodes one collective frame into a buffer checked out of `pool`.
pub(crate) fn encode_frame(
    pool: &Arc<BufPool>,
    group: u32,
    coll: u32,
    stream: u32,
    seg: u32,
    total: u32,
    payload: &[u8],
) -> PooledBuf {
    let mut buf = pool.get();
    let out = buf.vec_mut();
    out.clear();
    out.reserve(COLL_OVERHEAD + payload.len());
    out.push(TAG_COLL);
    out.extend_from_slice(&group.to_be_bytes());
    out.extend_from_slice(&coll.to_be_bytes());
    out.extend_from_slice(&stream.to_be_bytes());
    out.extend_from_slice(&seg.to_be_bytes());
    out.extend_from_slice(&total.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    buf
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Decodes a frame addressed to `expect_group`, taking ownership of the
/// frame buffer. Returns `None` for frames that are not well-formed
/// collective frames for this group.
pub fn decode_frame(bytes: Vec<u8>, expect_group: u32) -> Option<Seg> {
    if bytes.len() < COLL_OVERHEAD || bytes[0] != TAG_COLL {
        return None;
    }
    if read_u32(&bytes, 1) != expect_group {
        return None;
    }
    let coll = read_u32(&bytes, 5);
    let stream = read_u32(&bytes, 9);
    let seg = read_u32(&bytes, 13);
    let total = read_u32(&bytes, 17);
    let len = read_u32(&bytes, 21) as usize;
    if bytes.len() != COLL_OVERHEAD + len || total == 0 || seg >= total {
        return None;
    }
    Some(Seg {
        coll,
        stream,
        seg,
        total,
        raw: bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Bytes off the network never panic the decoder: they decode to
        /// a frame whose header agrees with its length, or to nothing.
        #[test]
        fn decode_frame_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            tagged: bool,
            group in 0u32..3,
        ) {
            let mut bytes = bytes;
            if tagged && !bytes.is_empty() {
                bytes[0] = TAG_COLL;
            }
            if let Some(seg) = decode_frame(bytes.clone(), group) {
                prop_assert!(seg.seg < seg.total);
                prop_assert_eq!(&seg.raw, &bytes);
                prop_assert_eq!(COLL_OVERHEAD + seg.payload().len(), seg.raw.len());
            }
        }

        /// Headers with arbitrary fields, a group that may be foreign
        /// and a payload length that may lie about the body.
        #[test]
        fn decode_frame_checks_every_header_field(
            fields in proptest::collection::vec(0u32..48, 6),
            body in proptest::collection::vec(any::<u8>(), 0..40),
            own_group: bool,
            honest_len: bool,
        ) {
            let mut fields = fields;
            if own_group {
                fields[0] = 7;
            }
            if honest_len {
                fields[5] = body.len() as u32;
            }
            let mut bytes = vec![TAG_COLL];
            for f in &fields {
                bytes.extend_from_slice(&f.to_be_bytes());
            }
            bytes.extend_from_slice(&body);
            let ok = fields[0] == 7 && fields[5] as usize == body.len() && fields[3] < fields[4];
            prop_assert_eq!(decode_frame(bytes, 7).is_some(), ok);
        }
    }

    #[test]
    fn frame_round_trips() {
        let pool = BufPool::new();
        let f = encode_frame(&pool, 9, 3, 1, 2, 5, b"abc");
        let seg = decode_frame(f.as_slice().to_vec(), 9).unwrap();
        assert_eq!((seg.coll, seg.stream, seg.seg, seg.total), (3, 1, 2, 5));
        assert_eq!(seg.payload(), b"abc");
        assert_eq!(seg.raw, f.as_slice());
        // Empty payloads (barrier tokens) survive too.
        let f = encode_frame(&pool, 9, 4, 0, 0, 1, b"");
        let seg = decode_frame(f.as_slice().to_vec(), 9).unwrap();
        assert!(seg.payload().is_empty());
    }

    #[test]
    fn frame_rejects_malformed() {
        let pool = BufPool::new();
        let good = encode_frame(&pool, 9, 3, 1, 2, 5, b"abc")
            .as_slice()
            .to_vec();
        assert!(decode_frame(good.clone(), 8).is_none(), "wrong group");
        let mut bad_tag = good.clone();
        bad_tag[0] = 0x00;
        assert!(decode_frame(bad_tag, 9).is_none());
        let mut truncated = good.clone();
        truncated.pop();
        assert!(decode_frame(truncated, 9).is_none());
        assert!(decode_frame(Vec::new(), 9).is_none());
        // seg >= total is invalid.
        let bad = encode_frame(&pool, 9, 3, 1, 7, 5, b"x").as_slice().to_vec();
        assert!(decode_frame(bad, 9).is_none());
    }
}
