//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no crates.io access, so this crate implements
//! the small slice of criterion's API the workspace benches use
//! (`criterion_group!` / `criterion_main!`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Bencher::iter`,
//! `Bencher::iter_batched`) on
//! top of plain `std::time::Instant`. Each benchmark runs a short warm-up,
//! then a fixed measurement batch, and prints the mean wall-clock time per
//! iteration. It is deliberately simple: no statistics, no plots — enough to
//! keep `cargo bench` useful and the bench targets compiling.

#![warn(rust_2018_idioms)]

use std::time::{Duration, Instant};

/// Top-level harness handle, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Accepted for API compatibility; this stand-in sizes measurement
    /// batches by wall-clock budget instead of a sample count.
    pub fn sample_size(self, _samples: usize) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _criterion: self,
            indent: "  ",
        }
    }

    /// Runs a single named benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, "", &mut routine);
        self
    }
}

/// A group of related benchmarks, mirroring `criterion::BenchmarkGroup`.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    indent: &'static str,
}

impl BenchmarkGroup<'_> {
    /// Runs a named benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, self.indent, &mut routine);
        self
    }

    /// Runs a benchmark parameterized by an input value.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&id.label, self.indent, &mut |b: &mut Bencher| {
            routine(b, input)
        });
        self
    }

    /// Ends the group (printing nothing extra in this stand-in).
    pub fn finish(self) {}
}

/// Identifier for a parameterized benchmark, mirroring
/// `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter description.
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> Self {
        Self {
            label: format!("{function_name}/{parameter}"),
        }
    }
}

/// Timing driver handed to each benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    measured: Option<Duration>,
    iters: u64,
}

impl Bencher {
    /// Times `routine`, storing the mean duration per iteration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until ~20ms have elapsed to fault in caches.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < Duration::from_millis(20) {
            black_box(routine());
            warm_iters += 1;
        }
        // Measure: aim for ~200ms of samples, at least 10 iterations.
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let target = (0.2 / per_iter.max(1e-9)).ceil() as u64;
        let iters = target.clamp(10, 1_000_000);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.measured = Some(start.elapsed());
        self.iters = iters;
    }
}

impl Bencher {
    /// Times `routine` on inputs from `setup`, storing the mean duration
    /// per iteration. Only `routine` is timed: each iteration runs `setup`
    /// first, and the routine's output is dropped after the clock stops.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut timed = |iters: u64| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                let output = black_box(routine(input));
                total += start.elapsed();
                drop(output);
            }
            total
        };
        // Warm-up: at least ~20ms of routine time, as in `iter`.
        let mut warm_iters = 0u64;
        let mut warm = Duration::ZERO;
        while warm < Duration::from_millis(20) {
            warm += timed(1);
            warm_iters += 1;
        }
        let per_iter = warm.as_secs_f64() / warm_iters as f64;
        let iters = ((0.2 / per_iter.max(1e-9)).ceil() as u64).clamp(10, 1_000_000);
        self.measured = Some(timed(iters));
        self.iters = iters;
    }
}

/// How many inputs `Bencher::iter_batched` prepares at once, mirroring
/// the one `criterion::BatchSize` variant the workspace benches use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// One setup call per iteration.
    PerIteration,
}

/// Identity function that defeats constant-folding of benchmark results,
/// mirroring `criterion::black_box`.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, indent: &str, routine: &mut F) {
    let mut bencher = Bencher::default();
    routine(&mut bencher);
    match bencher.measured {
        Some(total) => {
            let per_iter = total.as_secs_f64() / bencher.iters.max(1) as f64;
            println!(
                "{indent}{name:<44} {:>12.3} us/iter ({} iters)",
                per_iter * 1e6,
                bencher.iters
            );
        }
        None => println!("{indent}{name:<44} (no measurement)"),
    }
}

/// Declares a benchmark group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group_name:ident, $($target:path),+ $(,)?) => {
        fn $group_name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
    (
        name = $group_name:ident;
        $(#[$meta:meta])*
        config = $config:expr;
        targets = $($target:path),+ $(,)?
    ) => {
        fn $group_name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` that runs the given groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::default();
        b.iter(|| 40 + 2);
        assert!(b.iters >= 10);
        assert!(b.measured.unwrap() > Duration::ZERO);
    }

    #[test]
    fn iter_batched_runs_setup_before_every_timed_routine() {
        let mut b = Bencher::default();
        let (mut setups, mut routines) = (0u64, 0u64);
        b.iter_batched(|| setups += 1, |()| routines += 1, BatchSize::PerIteration);
        assert_eq!(setups, routines);
        assert!(b.iters >= 10);
    }

    #[test]
    fn benchmark_id_formats_label() {
        let id = BenchmarkId::new("simulate", "prune90%");
        assert_eq!(id.label, "simulate/prune90%");
    }
}
