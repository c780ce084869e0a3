//! Seeded message payloads, checked byte for byte at the receiver.
//!
//! Message `k` is its op id masked with a seeded key (8 bytes,
//! little-endian) followed by a window of a seeded byte pool that starts
//! at an offset derived from `k`, so consecutive messages differ and a
//! receiver that knows the seed can rebuild the exact bytes it should have
//! got.

/// Distinct payload windows cycled through by the op id.
const WINDOWS: usize = 64;
/// Bytes the window start moves per op id.
const STRIDE: usize = 8;

/// SplitMix64: the seed mixer every generated input comes from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payloads of one workload: `size`-byte messages from `seed`.
pub struct Payloads {
    size: usize,
    key: u64,
    pool: Vec<u8>,
}

impl Payloads {
    /// Messages of `size` bytes (at least the 8-byte op id).
    pub fn new(seed: u64, size: usize) -> Self {
        assert!(size >= 8, "a payload carries its 8-byte op id");
        let mut state = seed;
        let key = splitmix64(&mut state);
        let mut pool = Vec::with_capacity(size + WINDOWS * STRIDE + 8);
        while pool.len() < size + WINDOWS * STRIDE {
            pool.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        Payloads { size, key, pool }
    }

    fn body(&self, op: u64) -> &[u8] {
        let start = (op as usize % WINDOWS) * STRIDE;
        &self.pool[start..start + self.size - 8]
    }

    /// Writes message `op` into `buf` (resized to the message length).
    pub fn fill(&self, op: u64, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&(op ^ self.key).to_le_bytes());
        buf.extend_from_slice(self.body(op));
    }

    /// The op id a received message claims to carry.
    pub fn op_of(&self, msg: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(msg.get(..8)?.try_into().ok()?) ^ self.key)
    }

    /// Whether `msg` is exactly message `op`.
    pub fn check(&self, op: u64, msg: &[u8]) -> bool {
        msg.len() == self.size && self.op_of(msg) == Some(op) && &msg[8..] == self.body(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_messages_check_and_differ() {
        let p = Payloads::new(7, 64);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        p.fill(3, &mut a);
        p.fill(4, &mut b);
        assert!(p.check(3, &a) && p.check(4, &b));
        assert_ne!(a[8..], b[8..]);
        assert!(!p.check(4, &a));
        a[20] ^= 1;
        assert!(!p.check(3, &a));
    }

    #[test]
    fn seed_sets_the_bytes() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        Payloads::new(1, 64).fill(0, &mut a);
        Payloads::new(2, 64).fill(0, &mut b);
        assert_ne!(a, b);
    }
}
