//! Inner attributes that silence a contract lint for the whole file.
//! A comment naming #![allow(clippy::panic)] is not one.
#![allow(clippy::unwrap_used, reason = "a whole-file allow")]
#![expect(
    clippy::disallowed_types,
    reason = "a whole-file expect over several lines"
)]
#![cfg_attr(test, allow(clippy::panic, reason = "a conditional allow"))]
#![allow(clippy::restriction, reason = "a lint group holding unwrap_used")]
#![allow(dead_code, reason = "names no contract lint")]
#![deny(clippy::expect_used)]

pub fn text() -> &'static str {
    "#![allow(clippy::expect_used)]"
}
