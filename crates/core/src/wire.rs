//! Wire-protocol decoding for the serve daemon's request stream.
//!
//! The stream is newline-delimited JSON with exactly two message
//! shapes:
//!
//! ```text
//! {"edge": i, "count": c}   c requests arrived at edge i (count defaults to 1)
//! {"slot_end": true}        close the open slot now
//! ```
//!
//! Two decoders implement the protocol:
//!
//! * [`decode_strict`] — the reference path: full JSON parse through
//!   `cne_util::json`, then field extraction. Its error strings are
//!   part of the daemon's observable contract (they appear verbatim
//!   in `bad_line` events), so they never change.
//! * [`decode_fast`] — a hand-rolled, zero-allocation recognizer for
//!   the two canonical shapes, operating directly on the raw line
//!   bytes. It returns `Some` **only** when it is certain the strict
//!   path would accept the line with the same values; everything
//!   else — unusual whitespace, reordered or duplicated keys, escaped
//!   key names, numeric overflow, out-of-range edges, any syntax
//!   error — returns `None` and is retried through the strict path.
//!
//! [`decode`] composes the two on a raw line, as the daemon reads it:
//! fast path first, then UTF-8 validation, trimming, the blank-line
//! skip, and the strict path. A caller gets strict-path semantics
//! (including the exact error strings) at fast-path speed for the
//! overwhelmingly common canonical lines. The equivalence is enforced
//! by a property suite below: on arbitrary generated and adversarial
//! inputs, the composed decoder and the strict path on the trimmed
//! line agree on accept/reject, decoded values, and error text.
//!
//! The fast path's conservatism is load-bearing. Its whitespace set
//! (space, tab, CR) is a strict subset of both the JSON parser's
//! (`space, tab, LF, CR`) and `str::trim`'s (Unicode), its numbers
//! use checked `u64` arithmetic (overflow falls back, where the JSON
//! parser demotes the literal to a float and the strict path rejects
//! it), and any accepted line is pure ASCII by construction — so the
//! caller may skip UTF-8 validation for fast-path hits.

use cne_util::json::{self, Json};

/// One parsed request-stream line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMsg {
    /// `{"edge": i, "count": c}` — `c` requests arrived at edge `i`
    /// during the open slot (`count` defaults to 1).
    Request {
        /// Zero-based edge index, already validated against the fleet.
        edge: usize,
        /// Number of requests the line reports.
        count: u64,
    },
    /// `{"slot_end": true}` — close the open slot now.
    SlotEnd,
}

/// Parses one line of the wire protocol through the full JSON parser.
///
/// This is the reference decoder: field lookup is first-match (JSON
/// objects keep duplicate keys in order), `slot_end` takes precedence
/// over `edge`, and `count` defaults to 1. The error strings are the
/// daemon's observable rejection contract.
///
/// # Errors
/// A human-readable `bad request line: …` message for anything that
/// is not a well-formed wire message.
pub fn decode_strict(line: &str, num_edges: usize) -> Result<WireMsg, String> {
    let doc = json::parse(line).map_err(|e| format!("bad request line: {e}"))?;
    let Json::Obj(fields) = doc else {
        return Err("bad request line: expected a JSON object".to_owned());
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    if let Some(v) = get("slot_end") {
        return match v {
            Json::Bool(true) => Ok(WireMsg::SlotEnd),
            _ => Err("bad request line: slot_end must be true".to_owned()),
        };
    }
    let edge = match get("edge") {
        Some(Json::UInt(i)) => *i as usize,
        Some(_) => return Err("bad request line: edge must be a non-negative integer".to_owned()),
        None => return Err("bad request line: need \"edge\" or \"slot_end\"".to_owned()),
    };
    if edge >= num_edges {
        return Err(format!(
            "bad request line: edge {edge} out of range (fleet has {num_edges} edges)"
        ));
    }
    let count = match get("count") {
        Some(Json::UInt(c)) => *c,
        Some(_) => return Err("bad request line: count must be a non-negative integer".to_owned()),
        None => 1,
    };
    Ok(WireMsg::Request { edge, count })
}

/// Byte cursor for [`decode_fast`]. Every helper returns `None` on
/// mismatch, which the decoder propagates as "fall back to strict".
struct FastCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FastCursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Skips the fast path's conservative whitespace subset.
    fn ws(&mut self) {
        while matches!(self.buf.get(self.pos), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn byte(&mut self, want: u8) -> Option<()> {
        if self.buf.get(self.pos) == Some(&want) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    /// Consumes an exact byte literal (a quoted key or `true`).
    fn lit(&mut self, want: &[u8]) -> bool {
        if self.buf[self.pos..].starts_with(want) {
            self.pos += want.len();
            true
        } else {
            false
        }
    }

    /// A run of ASCII digits as a checked `u64`. Overflow returns
    /// `None`: the JSON parser demotes such literals to floats, which
    /// the strict path rejects with its canonical error. Leading
    /// zeros are accepted — `"01".parse::<u64>()` is `Ok(1)` on the
    /// strict path too.
    fn uint(&mut self) -> Option<u64> {
        let mut value: u64 = 0;
        let mut digits = 0usize;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            digits += 1;
            self.pos += 1;
        }
        (digits > 0).then_some(value)
    }

    fn eof(&self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

/// Zero-allocation decoder for the two canonical wire shapes.
///
/// Returns `Some` only when the line is **certain** to be accepted by
/// [`decode_strict`] with identical values; every uncertainty — and
/// every certain rejection, including an out-of-range edge — returns
/// `None` so the strict path can produce the canonical outcome. A
/// `Some` result guarantees the line was pure ASCII.
#[must_use]
pub fn decode_fast(line: &[u8], num_edges: usize) -> Option<WireMsg> {
    let mut c = FastCursor::new(line);
    c.ws();
    c.byte(b'{')?;
    c.ws();
    if c.lit(b"\"slot_end\"") {
        c.ws();
        c.byte(b':')?;
        c.ws();
        if !c.lit(b"true") {
            return None;
        }
        c.ws();
        c.byte(b'}')?;
        c.ws();
        c.eof()?;
        return Some(WireMsg::SlotEnd);
    }
    if !c.lit(b"\"edge\"") {
        return None;
    }
    c.ws();
    c.byte(b':')?;
    c.ws();
    let edge = c.uint()?;
    c.ws();
    let count = if c.peek() == Some(b',') {
        c.pos += 1;
        c.ws();
        if !c.lit(b"\"count\"") {
            return None;
        }
        c.ws();
        c.byte(b':')?;
        c.ws();
        let count = c.uint()?;
        c.ws();
        count
    } else {
        1
    };
    c.byte(b'}')?;
    c.ws();
    c.eof()?;
    // Same cast the strict path performs; out-of-range edges fall
    // back so the strict path emits its exact error string.
    let edge = edge as usize;
    if edge >= num_edges {
        return None;
    }
    Some(WireMsg::Request { edge, count })
}

/// Classifies one raw wire line (without its newline): a decoded
/// message, or `Ok(None)` for a blank line.
///
/// The zero-alloc fast path goes first: a hit is certain to match the
/// strict path and is pure ASCII, so the UTF-8/trim/parse pipeline is
/// skipped outright. Everything else gets the strict path's canonical
/// outcome on the trimmed line.
///
/// # Errors
/// `non-UTF-8 line (…)`, or exactly the strict path's
/// `bad request line: …` messages.
#[inline] // the daemon's read loop reaches the fast path in one call
pub fn decode(line: &[u8], num_edges: usize) -> Result<Option<WireMsg>, String> {
    if let Some(msg) = decode_fast(line, num_edges) {
        return Ok(Some(msg));
    }
    let text =
        std::str::from_utf8(line).map_err(|_| format!("non-UTF-8 line ({} bytes)", line.len()))?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    decode_strict(trimmed, num_edges).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wire_lines_parse() {
        match decode_strict("{\"edge\": 2, \"count\": 7}", 4).expect("valid") {
            WireMsg::Request { edge, count } => {
                assert_eq!((edge, count), (2, 7));
            }
            WireMsg::SlotEnd => panic!("not a slot end"),
        }
        match decode_strict("{\"edge\": 0}", 4).expect("count defaults to 1") {
            WireMsg::Request { edge, count } => {
                assert_eq!((edge, count), (0, 1));
            }
            WireMsg::SlotEnd => panic!("not a slot end"),
        }
        assert!(matches!(
            decode_strict("{\"slot_end\": true}", 4),
            Ok(WireMsg::SlotEnd)
        ));
    }

    #[test]
    fn wire_lines_reject_malformed_input() {
        assert!(decode_strict("not json", 4).is_err());
        assert!(decode_strict("[1, 2]", 4).is_err());
        assert!(decode_strict("{\"slot_end\": false}", 4).is_err());
        assert!(
            decode_strict("{\"count\": 3}", 4).is_err(),
            "edge is required"
        );
        assert!(decode_strict("{\"edge\": -1}", 4).is_err());
        assert!(decode_strict("{\"edge\": 4}", 4).is_err(), "out of range");
        assert!(decode_strict("{\"edge\": 1, \"count\": -2}", 4).is_err());
    }

    #[test]
    fn adversarial_wire_corpus_is_rejected_or_well_defined() {
        // Torn / partial JSON — every prefix of a valid line must be
        // rejected, never panic or mis-parse.
        let full = "{\"edge\": 3, \"count\": 17}";
        for cut in 1..full.len() {
            let prefix = &full[..cut];
            if prefix == full {
                continue;
            }
            assert!(
                decode_strict(prefix, 8).is_err(),
                "torn prefix must not parse: {prefix:?}"
            );
        }

        // Duplicate keys: the first occurrence wins (the hand-rolled
        // parser keeps both; lookup is first-match). Pinned so the
        // behavior is deliberate, not accidental.
        match decode_strict("{\"edge\": 1, \"edge\": 7}", 8).expect("first edge wins") {
            WireMsg::Request { edge, count } => assert_eq!((edge, count), (1, 1)),
            WireMsg::SlotEnd => panic!("not a slot end"),
        }
        match decode_strict("{\"edge\": 0, \"count\": 2, \"count\": 9}", 8)
            .expect("first count wins")
        {
            WireMsg::Request { edge, count } => assert_eq!((edge, count), (0, 2)),
            WireMsg::SlotEnd => panic!("not a slot end"),
        }

        // slot_end interleaved with request fields: slot_end takes
        // precedence regardless of field order.
        assert!(matches!(
            decode_strict("{\"edge\": 1, \"slot_end\": true}", 8),
            Ok(WireMsg::SlotEnd)
        ));
        assert!(matches!(
            decode_strict("{\"slot_end\": true, \"count\": 5}", 8),
            Ok(WireMsg::SlotEnd)
        ));
        assert!(decode_strict("{\"slot_end\": 1}", 8).is_err());
        assert!(decode_strict("{\"slot_end\": \"true\"}", 8).is_err());

        // Huge, negative, and non-integer edge/count values.
        assert!(
            decode_strict("{\"edge\": 18446744073709551615}", 8).is_err(),
            "u64::MAX edge"
        );
        assert!(
            decode_strict("{\"edge\": 99999999999999999999999}", 8).is_err(),
            "overflow"
        );
        assert!(decode_strict("{\"edge\": -3}", 8).is_err());
        assert!(decode_strict("{\"edge\": 1.5}", 8).is_err());
        assert!(decode_strict("{\"edge\": \"1\"}", 8).is_err());
        assert!(decode_strict("{\"edge\": 1, \"count\": -9223372036854775808}", 8).is_err());
        assert!(decode_strict("{\"edge\": 1, \"count\": 3.7}", 8).is_err());
        assert!(decode_strict("{\"edge\": 1, \"count\": null}", 8).is_err());
        // u64::MAX count is structurally valid — the accumulator is
        // u64 and the daemon's per-slot sum may saturate, but parsing
        // must not reject or wrap it.
        match decode_strict("{\"edge\": 0, \"count\": 18446744073709551615}", 8).expect("valid") {
            WireMsg::Request { count, .. } => assert_eq!(count, u64::MAX),
            WireMsg::SlotEnd => panic!("not a slot end"),
        }

        // Structural garbage.
        for line in [
            "",
            "   ",
            "null",
            "true",
            "42",
            "\"edge\"",
            "[{\"edge\": 1}]",
            "{\"edge\": {\"nested\": 1}}",
            "{}",
            "{\"unrelated\": 1}",
            "{\"edge\": 1,}",
            "{'edge': 1}",
            "{\"edge\" 1}",
            "\u{0}\u{1}\u{2}",
        ] {
            assert!(decode_strict(line, 8).is_err(), "must reject {line:?}");
        }
    }

    /// The slow chain alone: the strict path on the trimmed line,
    /// blank lines skipped.
    fn reference(line: &str, num_edges: usize) -> Result<Option<WireMsg>, String> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(None);
        }
        decode_strict(trimmed, num_edges).map(Some)
    }

    /// The property both suites below enforce: wherever the fast path
    /// speaks, it must agree with the strict path bit-for-bit.
    fn assert_equivalent(line: &str, num_edges: usize) {
        if let Some(fast) = decode_fast(line.as_bytes(), num_edges) {
            assert_eq!(
                decode_strict(line, num_edges),
                Ok(fast),
                "fast path accepted {line:?} but strict path disagrees"
            );
        }
        // The composed decoder is therefore always strict-equivalent.
        assert_eq!(
            decode(line.as_bytes(), num_edges),
            reference(line, num_edges)
        );
    }

    #[test]
    fn canonical_shapes_take_the_fast_path() {
        assert_eq!(
            decode_fast(br#"{"edge":3,"count":17}"#, 8),
            Some(WireMsg::Request { edge: 3, count: 17 })
        );
        assert_eq!(
            decode_fast(br#"{"edge": 0}"#, 8),
            Some(WireMsg::Request { edge: 0, count: 1 })
        );
        assert_eq!(
            decode_fast(b" { \"edge\"\t: 7 , \"count\" : 2 } \r", 8),
            Some(WireMsg::Request { edge: 7, count: 2 })
        );
        assert_eq!(
            decode_fast(br#"{"slot_end":true}"#, 8),
            Some(WireMsg::SlotEnd)
        );
        assert_eq!(
            decode_fast(br#"  {  "slot_end"  :  true  }  "#, 8),
            Some(WireMsg::SlotEnd)
        );
        assert_eq!(
            decode_fast(
                &format!("{{\"edge\":1,\"count\":{}}}", u64::MAX).into_bytes(),
                8
            ),
            Some(WireMsg::Request {
                edge: 1,
                count: u64::MAX
            })
        );
    }

    #[test]
    fn uncertain_lines_fall_back() {
        let fleet = 8;
        for line in [
            // Out of range / overflow: strict rejects with specific text.
            r#"{"edge":8}"#,
            r#"{"edge":18446744073709551615}"#,
            r#"{"edge":99999999999999999999999}"#,
            r#"{"edge":1,"count":99999999999999999999999}"#,
            // Valid JSON the strict path accepts but the fast grammar
            // does not recognize — fallback must accept them.
            r#"{"count":2,"edge":1}"#,
            r#"{"edge":1,"extra":true}"#,
            r#"{"edge":1,"count":2,"count":3}"#,
            r#"{"slot_end":true,"edge":99}"#,
            "{\"edge\":\n1}",
            // Plain rejects.
            r#"{"edge":-3}"#,
            r#"{"edge":1.5}"#,
            r#"{"edge":"1"}"#,
            r#"{"slot_end":1}"#,
            r#"{"slot_end":"true"}"#,
            r#"{"edge":1,"count":null}"#,
            r#"{"edge":1"count":2}"#,
            r#"{"edge": 3, "count": 17"#,
            r#"{"edge":1} x"#,
            "[1,2]",
            "",
            "   ",
        ] {
            assert_eq!(decode_fast(line.as_bytes(), fleet), None, "line {line:?}");
            assert_equivalent(line, fleet);
        }
    }

    #[test]
    fn blank_and_non_utf8_lines() {
        // Anything `str::trim` empties is skipped, Unicode whitespace
        // included, although the fast path never judges it.
        for line in ["", " \t\r", "\u{a0}", "\x0c", " \u{2003}\n"] {
            assert_eq!(decode(line.as_bytes(), 8), Ok(None), "line {line:?}");
        }
        assert_eq!(
            decode(b"{\"edge\":1}\xff", 8),
            Err("non-UTF-8 line (11 bytes)".to_owned())
        );
    }

    /// Splitmix64 — tiny deterministic generator for the adversarial
    /// mutation corpus (independent of proptest's shrinking RNG).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Deterministic mutation corpus: canonical lines damaged by
    /// truncation, byte flips, duplicated keys, injected whitespace,
    /// and non-UTF-8 bytes. Every UTF-8 survivor must stay
    /// fast/strict-equivalent; non-UTF-8 mutants must never be
    /// accepted by the fast path (its accepted alphabet is ASCII).
    #[test]
    fn mutation_corpus_stays_equivalent() {
        let mut rng = SplitMix64(0xc0ff_ee11);
        let seeds = [
            r#"{"edge":3,"count":17}"#.to_owned(),
            r#"{"edge": 0}"#.to_owned(),
            r#"{"slot_end":true}"#.to_owned(),
            format!("{{\"edge\":1,\"count\":{}}}", u64::MAX),
            r#"{"edge":7,"count":0}"#.to_owned(),
        ];
        let mut checked = 0usize;
        for seed in &seeds {
            let bytes = seed.as_bytes();
            // Every truncation prefix.
            for cut in 0..bytes.len() {
                let torn = &bytes[..cut];
                if let Ok(s) = std::str::from_utf8(torn) {
                    assert_equivalent(s, 8);
                    checked += 1;
                }
            }
            // Random single-byte flips and insertions.
            for _ in 0..400 {
                let mut mutant = bytes.to_vec();
                match rng.next() % 3 {
                    0 => {
                        let at = (rng.next() as usize) % mutant.len();
                        mutant[at] = (rng.next() % 256) as u8;
                    }
                    1 => {
                        let at = (rng.next() as usize) % (mutant.len() + 1);
                        mutant.insert(at, (rng.next() % 256) as u8);
                    }
                    _ => {
                        let at = (rng.next() as usize) % (mutant.len() + 1);
                        let ws = [b' ', b'\t', b'\r', b'\n'][(rng.next() % 4) as usize];
                        mutant.insert(at, ws);
                    }
                }
                match std::str::from_utf8(&mutant) {
                    Ok(s) => {
                        assert_equivalent(s, 8);
                        checked += 1;
                    }
                    Err(_) => {
                        // Anything the fast path accepts is pure
                        // ASCII; a non-UTF-8 mutant can never pass.
                        assert_eq!(decode_fast(&mutant, 8), None);
                        assert!(decode(&mutant, 8).unwrap_err().starts_with("non-UTF-8"));
                    }
                }
            }
        }
        assert!(checked > 1000, "corpus shrank unexpectedly: {checked}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Canonical generated lines (arbitrary spacing drawn from the
        /// JSON whitespace set, arbitrary values) decode identically
        /// on both paths, and in-range canonical spacing keeps the
        /// fast path engaged.
        #[test]
        fn generated_requests_are_equivalent(
            edge in 0u64..20,
            count in prop_oneof![
                Just(None),
                (0u64..u64::MAX).prop_map(Some),
                Just(Some(u64::MAX)),
            ],
            num_edges in 1usize..16,
            sp in proptest::collection::vec(prop_oneof![
                Just(""), Just(" "), Just("\t"), Just("  "), Just("\r")
            ], 8..9),
        ) {
            let count_part = count.map_or(String::new(), |c| {
                format!(",{}\"count\"{}:{}{c}", sp[5], sp[6], sp[7])
            });
            let line = format!(
                "{}{{{}\"edge\"{}:{}{edge}{}{count_part}}}{}",
                sp[0], sp[1], sp[2], sp[3], sp[4], sp[0],
            );
            let fast = decode_fast(line.as_bytes(), num_edges);
            let strict = decode_strict(&line, num_edges);
            if (edge as usize) < num_edges {
                // In range: the fast path must engage and agree.
                let expected = WireMsg::Request { edge: edge as usize, count: count.unwrap_or(1) };
                prop_assert_eq!(fast, Some(expected));
                prop_assert_eq!(strict, Ok(expected));
            } else {
                // Out of range: fast path defers, strict path rejects.
                prop_assert_eq!(fast, None);
                prop_assert!(strict.is_err());
            }
            prop_assert_eq!(decode(line.as_bytes(), num_edges), reference(&line, num_edges));
        }

        /// Arbitrary printable-ish strings: the fast path never
        /// disagrees with the strict path, accept or reject.
        #[test]
        fn arbitrary_lines_are_equivalent(
            bytes in proptest::collection::vec(prop_oneof![
                0x20u8..0x7f, Just(b'\t'), Just(b'\r')
            ], 0..48),
            num_edges in 1usize..16,
        ) {
            let line = String::from_utf8(bytes).expect("ASCII by construction");
            if let Some(fast) = decode_fast(line.as_bytes(), num_edges) {
                prop_assert_eq!(decode_strict(&line, num_edges), Ok(fast));
            }
            prop_assert_eq!(decode(line.as_bytes(), num_edges), reference(&line, num_edges));
        }

        /// JSON-shaped fragments with wire keys spliced in: stress the
        /// boundary between the fast grammar and real JSON.
        #[test]
        fn spliced_json_fragments_are_equivalent(
            parts in proptest::collection::vec(prop_oneof![
                Just("{"), Just("}"), Just("\"edge\""), Just("\"count\""),
                Just("\"slot_end\""), Just(":"), Just(","), Just("true"),
                Just("false"), Just("null"), Just("0"), Just("1"), Just("42"),
                Just("18446744073709551615"), Just("99999999999999999999999"),
                Just("-1"), Just("1.5"), Just(" "), Just("\t"),
            ], 0..12),
            num_edges in 1usize..16,
        ) {
            let line: String = parts.concat();
            if let Some(fast) = decode_fast(line.as_bytes(), num_edges) {
                prop_assert_eq!(decode_strict(&line, num_edges), Ok(fast));
            }
            prop_assert_eq!(decode(line.as_bytes(), num_edges), reference(&line, num_edges));
        }
    }
}
