//! Property tests for the JSON value type: the parser never panics on
//! arbitrary, truncated or corrupted input (launch parses telemetry that
//! ranks push over the network), and every generated value survives a
//! write → parse round trip unchanged.

use ncs_obs::json::{Json, MAX_DEPTH};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A random string: mostly printable ASCII, with quotes, backslashes,
/// control characters and non-ASCII scalars mixed in.
fn gen_string(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| match rng.below(6) {
            0 => ['"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}'][rng.below(7) as usize],
            1 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => (rng.below(0x5f) as u8 + 0x20) as char,
        })
        .collect()
}

/// A random value up to `depth` levels of nesting.
fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    let leaf_kinds = 7;
    let kinds = if depth == 0 {
        leaf_kinds
    } else {
        leaf_kinds + 2
    };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Int(i128::from(rng.next_u64() as i64)),
        3 => Json::Int(i128::from(rng.next_u64())),
        4 => {
            // Any finite f64, including subnormals and integral values.
            let n = f64::from_bits(rng.next_u64());
            Json::Num(if n.is_finite() { n } else { 0.5 })
        }
        5 => Json::Num((rng.below(2_000_001) as f64 - 1e6) / 64.0),
        6 => Json::Str(gen_string(rng)),
        7 => Json::Arr(
            (0..rng.below(5))
                .map(|_| gen_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Strategy over [`gen_json`] values nested up to four levels.
struct ArbJson;

impl Strategy for ArbJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        gen_json(rng, 4)
    }
}

/// Bytes drawn mostly from JSON's own token alphabet, so random input
/// reaches deep into the parser instead of failing on the first byte.
fn json_ish_bytes() -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![
            Just(b'{'),
            Just(b'}'),
            Just(b'['),
            Just(b']'),
            Just(b'"'),
            Just(b'\\'),
            Just(b':'),
            Just(b','),
            Just(b'u'),
            Just(b'e'),
            Just(b'-'),
            Just(b'.'),
            b'0'..=b'9',
            Just(b' '),
            any::<u8>(),
        ],
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..300)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_ish_bytes_never_panic(bytes in json_ish_bytes()) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn values_round_trip(v in ArbJson) {
        let text = v.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(v), "{}", text);
    }

    /// A valid document cut short, or with one byte flipped, parses or
    /// errors but never panics; a prefix that does parse is a complete
    /// document of its own.
    #[test]
    fn truncated_and_flipped_documents_never_panic(
        v in ArbJson,
        cut in any::<usize>(),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let text = v.to_string();
        let mut cut = cut % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        if let Ok(prefix) = Json::parse(&text[..cut]) {
            prop_assert_eq!(Json::parse(&prefix.to_string()), Ok(prefix));
        }
        let mut bytes = text.into_bytes();
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= flip;
        }
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Nesting past the limit is an error at any depth, never a stack
    /// overflow; nesting at the limit parses.
    #[test]
    fn nesting_limit_holds(extra in 0usize..10_000, obj in any::<bool>()) {
        let (open, close) = if obj { ("{\"k\":", "}") } else { ("[", "]") };
        let nest = |n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
        prop_assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        prop_assert!(Json::parse(&nest(MAX_DEPTH + 1 + extra)).is_err());
    }
}
