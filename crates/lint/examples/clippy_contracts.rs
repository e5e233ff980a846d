//! Known-bad cases of the contracts clippy checks: panics, wall-clock
//! reads and hash-order collections. Each violation carries an
//! `#[expect]` naming the lint that must report it, so if `clippy.toml`
//! stops naming a clock or collection, or clippy stops reporting a case,
//! its expectation goes unfulfilled and `cargo clippy --workspace
//! --all-targets -- -D warnings` fails. An `#[expect]` enables its lint
//! by itself, so the workspace `[lints]` table is pinned separately, by
//! `clippy_contract_policy_is_configured` in `tests/contracts.rs`. The
//! contracts `leopard-lint` checks have their fixtures in
//! `tests/fixtures/lint/`.

#[expect(clippy::disallowed_types, reason = "fixture: importing HashMap")]
use std::collections::HashMap;

fn first(xs: &[u32]) -> u32 {
    #[expect(clippy::unwrap_used, reason = "fixture: unwrap")]
    let x = *xs.first().unwrap();
    x
}

fn must(map: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "fixture: expect")]
    let x = map.expect("present");
    x
}

#[expect(clippy::panic, reason = "fixture: panic!")]
fn never(flag: bool) {
    if flag {
        panic!("boom");
    }
}

fn measure() -> u128 {
    #[expect(clippy::disallowed_methods, reason = "fixture: Instant::now")]
    let start = std::time::Instant::now();
    start.elapsed().as_nanos()
}

#[expect(
    clippy::disallowed_types,
    reason = "fixture: SystemTime in a signature"
)]
fn epoch() -> std::time::SystemTime {
    #[expect(clippy::disallowed_methods, reason = "fixture: SystemTime::now")]
    let now = std::time::SystemTime::now();
    now
}

fn tally(names: &[&str]) -> usize {
    #[expect(clippy::disallowed_types, reason = "fixture: a HashMap binding")]
    let mut seen: HashMap<&str, usize> = Default::default();
    #[expect(clippy::disallowed_types, reason = "fixture: a HashMap constructor")]
    let fresh = HashMap::<&str, usize>::new();
    for n in names {
        *seen.entry(n).or_insert(0) += 1;
    }
    seen.len() + fresh.len()
}

fn main() {
    never(false);
    let elapsed = measure() + u128::from(first(&[1]) + must(Some(1)));
    println!("{elapsed} {:?} {}", epoch(), tally(&["a"]));
}
