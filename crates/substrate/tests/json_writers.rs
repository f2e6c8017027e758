//! Property tests of the streaming JSON writers: `write_num` and
//! `write_escaped` must give exactly the bytes of the formatting they
//! replaced, which every persisted state, snapshot and response is
//! pinned to. The reference implementations below are that earlier
//! formatting, kept verbatim as the oracle.

use std::fmt::Write as _;

use fcm_substrate::json::{write_escaped, write_num};
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop, prop_assert_eq, Json};

/// The number formatting before `write_num`: integral values below 9e15
/// through `i64`'s `Display`, other finite values through `f64`'s,
/// non-finite values as `null`.
fn reference_num(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// The string escaping before the whole-string fast path: one `char`
/// at a time.
fn reference_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn num(n: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, n);
    out
}

fn escaped(s: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, s);
    out
}

#[test]
fn write_num_matches_the_reference_on_edge_values() {
    let cut = 9.0e15;
    let edges = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        0.1,
        cut,
        -cut,
        cut - 1.0,
        -(cut - 1.0),
        cut + 1.0,
        -(cut + 1.0),
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        1e21,
        -1e21,
        1e-7,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        i64::MAX as f64,
        i64::MIN as f64,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for n in edges {
        assert_eq!(num(n), reference_num(n), "{n:?} ({:#x})", n.to_bits());
    }
    assert_eq!(num(-0.0), "0");
    assert_eq!(num(f64::NAN), "null");
}

#[test]
fn write_num_matches_the_reference_on_random_bit_patterns() {
    prop::check_cases(
        "write_num_matches_the_reference_on_random_bit_patterns",
        256,
        |rng, _| {
            // Raw bit patterns cover every exponent; integers and short
            // decimals cover the values a model actually holds.
            (0..64)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => rng.next_u64() as i64 as f64,
                    1 => (rng.next_u64() % 20_000_000_000_000_000) as f64 - 1e16,
                    2 => f64::from(rng.gen_range(0..1000u32)) / 100.0,
                    _ => f64::from_bits(rng.next_u64()),
                })
                .collect::<Vec<f64>>()
        },
        |values| {
            for &n in values {
                prop_assert_eq!(num(n), reference_num(n), "bits {:#x}", n.to_bits());
            }
            Ok(())
        },
    );
}

/// A random string over characters that need escaping, DEL (which does
/// not), ASCII and multibyte characters; half the cases are plain, so
/// the fast path is taken as often as the escaping one.
fn random_text(rng: &mut Rng, size: usize) -> String {
    const PLAIN: [char; 8] = ['a', 'Z', '0', ' ', '\u{7f}', 'é', '☃', '𝄞'];
    const SPECIAL: [char; 9] = [
        '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}', '\u{1f}',
    ];
    let plain = rng.gen_bool(0.5);
    (0..rng.gen_range(0..=size))
        .map(|_| {
            if !plain && rng.gen_bool(0.3) {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                PLAIN[rng.gen_range(0..PLAIN.len())]
            }
        })
        .collect()
}

#[test]
fn write_escaped_matches_the_char_by_char_reference() {
    prop::check_cases(
        "write_escaped_matches_the_char_by_char_reference",
        256,
        random_text,
        |s| {
            prop_assert_eq!(escaped(s), reference_escaped(s));
            let back = Json::parse(&escaped(s)).map_err(|e| format!("{e}: {s:?}"))?;
            prop_assert_eq!(back.as_str(), Some(s.as_str()));
            Ok(())
        },
    );
}

#[test]
fn write_escaped_copies_plain_strings_whole() {
    for s in ["", "p8", "hw5", "é☃𝄞", "del\u{7f}"] {
        assert_eq!(escaped(s), format!("\"{s}\""));
    }
    assert_eq!(escaped("a\"b\\c\u{01}"), "\"a\\\"b\\\\c\\u0001\"");
}
