use std::sync::atomic::{AtomicU64, Ordering};

pub fn jobs_done(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

pub fn jobs_done_qualified(counter: &AtomicU64) -> u64 {
    counter.load(std::sync::atomic::Ordering::Relaxed)
}
