pub fn sums(shards: &[f64]) -> f64 {
    let mut total = 0.0;
    for s in shards {
        // lint:allow(float-accumulation-order)
        total += s;
        total += s; // lint:allow(not-a-rule, reason = "names a rule that does not exist")
    }
    total
}

// lint:allow(float-accumulation-order, reason = "nothing on the next line accumulates")
pub fn stale() {}
