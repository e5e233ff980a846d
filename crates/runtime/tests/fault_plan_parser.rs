//! Mutation properties of the fault-plan parser over the checked-in
//! `examples/fault_plan.json`: every truncation prefix, byte
//! substitutions at every position, random multi-byte flips, and deep
//! nesting. `FaultPlan::from_json` must return `Err` or a plan that
//! validation accepts or rejects cleanly — it never panics or overflows
//! the stack — and every plan it returns survives a `to_json` round trip.

use leopard_runtime::faults::FaultPlan;
use proptest::prelude::*;
use std::panic::catch_unwind;

const EXAMPLE: &str = include_str!("../../../examples/fault_plan.json");

/// Tiles the example plan was written for (`--servers 4` in CI).
const SERVERS: usize = 4;

/// Bytes that steer the reader into every branch: structure, strings,
/// escapes, numbers, whitespace and plain letters.
const ALPHABET: &[u8] = b"{}[]\",:\\-.+eE09 x";

/// Parses `text` under `catch_unwind` and checks what comes back.
fn check(text: &str) -> Result<(), String> {
    let parsed = catch_unwind(|| FaultPlan::from_json(text))
        .map_err(|_| format!("from_json panicked on {text:?}"))?;
    let Ok(plan) = parsed else {
        return Ok(());
    };
    let round_trip = FaultPlan::from_json(&plan.to_json());
    if round_trip.as_ref() != Ok(&plan) {
        return Err(format!("{text:?} does not round-trip: {round_trip:?}"));
    }
    let validated = catch_unwind(|| plan.clone().validated(SERVERS))
        .map_err(|_| format!("validated panicked on {text:?}"))?;
    if let Ok(valid) = validated {
        let sorted = valid
            .tile_events
            .windows(2)
            .all(|w| w[0].cycle <= w[1].cycle);
        if !(sorted && (0.0..=1.0).contains(&valid.fail_rate)) {
            return Err(format!("{text:?} validated to an inconsistent plan"));
        }
    }
    Ok(())
}

#[test]
fn the_example_plan_parses_and_validates() {
    let plan = FaultPlan::from_json(EXAMPLE).expect("example plan parses");
    assert!(plan.validated(SERVERS).is_ok());
}

#[test]
fn every_truncation_prefix_is_handled() {
    for end in 0..=EXAMPLE.len() {
        check(&EXAMPLE[..end]).unwrap();
    }
}

#[test]
fn every_single_byte_substitution_is_handled() {
    let bytes = EXAMPLE.as_bytes();
    for position in 0..bytes.len() {
        for &byte in ALPHABET {
            let mut mutated = bytes.to_vec();
            mutated[position] = byte;
            check(std::str::from_utf8(&mutated).expect("ASCII stays UTF-8")).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_multi_byte_flips_are_handled(
        flips in collection::vec((0usize..EXAMPLE.len(), 0usize..ALPHABET.len()), 1..8)
    ) {
        let mut mutated = EXAMPLE.as_bytes().to_vec();
        for &(position, byte) in &flips {
            mutated[position] = ALPHABET[byte];
        }
        let text = std::str::from_utf8(&mutated).expect("ASCII stays UTF-8");
        prop_assert!(check(text).is_ok(), "{:?}", check(text));
    }
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    // Used to abort with "stack overflow" (rc=134) from the CLI.
    for opener in ["[", "{\"a\":"] {
        let err = FaultPlan::from_json(&opener.repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
    // The limit sits well above the plan format's own three levels: a
    // seed inside 15 arrays (16 levels with the plan object) gets as far
    // as the type check, and one more array hits the limit.
    let nested =
        |depth: usize| format!("{{\"seed\": {}1{}}}", "[".repeat(depth), "]".repeat(depth));
    let shallow = FaultPlan::from_json(&nested(15)).unwrap_err();
    assert!(!shallow.contains("nesting"), "{shallow}");
    let deep = FaultPlan::from_json(&nested(16)).unwrap_err();
    assert!(deep.contains("nesting deeper than 16 levels"), "{deep}");
    check(&nested(16)).unwrap();
}
