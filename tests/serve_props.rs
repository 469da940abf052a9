//! Adversarial property tests for the two hand-rolled parsers the
//! service mode leans on: the HTTP/1.1 request-head parser
//! (`serve::http::parse_head`) and the `vmcw-health/v1` JSON codec
//! (`health::HealthSnapshot`). Both sit on untrusted input — network
//! bytes and possibly-torn on-disk telemetry — so the invariant under
//! test is always the same: **typed errors, never panics, never
//! silently misparsed data.**

use proptest::prelude::*;
use vmcw_repro::core::health::{CellHealth, HealthSnapshot, InflightJob, ServeHealth};
use vmcw_repro::core::serve::http::{parse_head, HttpError, MAX_BODY_BYTES, MAX_HEADER_COUNT};

fn bytes_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..max)
}

/// Maps raw bytes onto a small adversarial alphabet for header values:
/// digits plus the classic content-length smuggling characters.
fn smuggle_value(raw: &[u8]) -> String {
    const ALPHABET: &[u8] = b"0123456789+-exE. \t";
    raw.iter()
        .map(|b| ALPHABET[*b as usize % ALPHABET.len()] as char)
        .collect()
}

/// A string drawn from arbitrary bytes (lossily decoded, so it may
/// contain replacement chars, quotes, backslashes, control chars...).
fn wild_string(raw: &[u8]) -> String {
    String::from_utf8_lossy(raw).into_owned()
}

/// Floats that survive the encoder's `{:.3}` formatting exactly.
fn milli(f: u32) -> f64 {
    f64::from(f) / 1000.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn http_head_parser_never_panics_on_arbitrary_bytes(raw in bytes_strategy(2048)) {
        // The contract is total: any byte soup is Ok or a typed error.
        if let Ok(head) = parse_head(&raw) {
            prop_assert!(!head.method.is_empty());
            prop_assert!(head.method.bytes().all(|b| b.is_ascii_uppercase()));
            prop_assert!(head.content_length <= MAX_BODY_BYTES);
            prop_assert!(head.headers.len() <= MAX_HEADER_COUNT);
        }
    }

    #[test]
    fn http_header_count_limit_is_exact(extra in 0usize..80) {
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..extra {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        match parse_head(raw.as_bytes()) {
            Ok(head) => prop_assert!(extra <= MAX_HEADER_COUNT && head.headers.len() == extra),
            Err(HttpError::TooLarge { .. }) => prop_assert!(extra > MAX_HEADER_COUNT),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    #[test]
    fn http_content_length_is_strict_digits_or_rejected(raw in bytes_strategy(28)) {
        let value = smuggle_value(&raw);
        let head = format!("POST /v1/plan HTTP/1.1\r\nContent-Length: {value}\r\n");
        let trimmed = value.trim();
        // Mirror the spec: nonempty, pure ASCII digits, fits usize,
        // within the body cap — anything else must be rejected.
        let want: Option<usize> = if !trimmed.is_empty()
            && trimmed.bytes().all(|b| b.is_ascii_digit())
        {
            trimmed.parse::<usize>().ok().filter(|n| *n <= MAX_BODY_BYTES)
        } else {
            None
        };
        match (parse_head(head.as_bytes()), want) {
            (Ok(parsed), Some(n)) => prop_assert_eq!(parsed.content_length, n),
            (Err(_), None) => {}
            (Ok(parsed), None) => prop_assert!(
                false,
                "smuggled content-length `{}` parsed as {}",
                value,
                parsed.content_length
            ),
            (Err(e), Some(n)) => prop_assert!(false, "rejected valid length {n}: {e}"),
        }
    }

    #[test]
    fn health_round_trips_adversarial_strings_and_values(
        status_raw in bytes_strategy(24),
        cell_raw in bytes_strategy(24),
        incident_raw in bytes_strategy(48),
        counts in (0u32..5000, 0u32..5000, 0u32..100000),
        with_serve in 0u8..2,
        deadline_ms in -100000i64..100000,
    ) {
        let snap = HealthSnapshot {
            status: wild_string(&status_raw),
            cells: vec![CellHealth {
                cell: wild_string(&cell_raw),
                state: "running".into(),
                attempt: counts.0 as usize,
                hours_done: counts.1 as usize,
                hours_total: 336,
                steps: u64::from(counts.1),
                beat_age_secs: milli(counts.2),
                steps_per_sec: milli(counts.0),
                incidents: vec![wild_string(&incident_raw)],
            }],
            serve: (with_serve == 1).then(|| ServeHealth {
                queue_depth: counts.0 as usize,
                queue_limit: 8,
                workers: 2,
                shed_total: u64::from(counts.1),
                deadline_timeouts: u64::from(counts.2),
                breaker: wild_string(&status_raw),
                breaker_failures: 1,
                inflight: vec![InflightJob {
                    job: wild_string(&cell_raw),
                    state: "queued".into(),
                    deadline_ms_remaining: Some(deadline_ms),
                }],
            }),
        };
        let parsed = HealthSnapshot::parse(&snap.to_json());
        prop_assert_eq!(parsed.expect("encoder output must parse"), snap);
    }

    #[test]
    fn health_truncation_errors_or_parses_identically(
        cut_permille in 0u32..1000,
        wild in bytes_strategy(16),
    ) {
        let snap = HealthSnapshot {
            status: wild_string(&wild),
            cells: vec![CellHealth {
                cell: "A/Dynamic".into(),
                state: "running".into(),
                attempt: 1,
                hours_done: 7,
                hours_total: 336,
                steps: 7,
                beat_age_secs: 0.25,
                steps_per_sec: 44.5,
                incidents: vec![wild_string(&wild)],
            }],
            serve: None,
        };
        let doc = snap.to_json();
        let mut cut = (doc.len() * cut_permille as usize) / 1000;
        while cut > 0 && !doc.is_char_boundary(cut) {
            cut -= 1;
        }
        // A truncated document either fails with a typed error or — if
        // only trailing whitespace was cut — parses to the same value.
        // Never a panic, never a different value.
        match HealthSnapshot::parse(&doc[..cut]) {
            Err(_) => {}
            Ok(parsed) => prop_assert_eq!(parsed, snap, "cut at {} of {}", cut, doc.len()),
        }
    }

    #[test]
    fn health_byte_corruption_never_panics(
        pos_permille in 0u32..1000,
        replacement in 0u8..=255,
    ) {
        let snap = HealthSnapshot {
            status: "running".into(),
            cells: vec![],
            serve: None,
        };
        let mut bytes = snap.to_json().into_bytes();
        let pos = (bytes.len() * pos_permille as usize) / 1000;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] = replacement;
        // Corruption may happen to leave the document valid (flipping a
        // byte inside a string, say); the contract is only that the
        // parser returns rather than panicking — including on invalid
        // UTF-8, which `parse_bytes` must catch itself.
        let _ = HealthSnapshot::parse_bytes(&bytes);
    }

    #[test]
    fn health_random_bytes_never_panic_the_parser(raw in bytes_strategy(512)) {
        let _ = HealthSnapshot::parse_bytes(&raw);
    }
}
