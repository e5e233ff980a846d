#[expect(clippy::expect_used)]
pub fn reasonless(x: Option<u32>) -> u32 {
    x.expect("present")
}
#[allow(clippy::expect_used, reason = "an allow never reports that it went stale")]
pub fn allowed(x: Option<u32>) -> u32 {
    x.expect("present")
}
#[expect(clippy::expect_used, reason = "nothing here calls expect")]
pub fn unfulfilled() {}
