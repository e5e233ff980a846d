//! Known-good file: every violation carries a reasoned allow, and the
//! lexer stressors below must not leak tokens into the rule engine.

pub fn allowed(telemetry: &Telemetry) -> String {
    telemetry.flush() // lint:allow(observe-only-telemetry, reason = "runs after the measured region")
}

pub fn stressors() -> usize {
    let s = r#"telemetry.flush() and counter.load(Relaxed) inside a raw "string""#;
    let c = '"';
    let b = b'\'';
    /* nested /* block comment mentioning telemetry.flush() */ still opaque */
    s.len() + (c as usize) + (b as usize)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_read_telemetry() {
        telemetry.flush();
    }
}
