//! The output check: a digest of each run's simulated output, compared with
//! the digest pinned in `expected.txt` for that workload and seed slot.
//!
//! Host-dependent report fields (wall time, stage times, thread and job
//! counts, workload-cache counters) are masked, so the digest covers only
//! the simulated output, which is a pure function of the inputs.

use crate::workload::{Kind, Workload};
use leopard_workloads::pipeline::{summarize, TaskResult};
use leopard_workloads::suite::PAPER_GMEANS;

const EXPECTED: &str = include_str!("../expected.txt");

/// Report lines whose value depends on the host or the runner, not on the
/// simulation. Only the key is hashed.
const MASKED_KEYS: [&str; 5] = [
    "\"threads\":",
    "\"jobs\":",
    "\"wall_seconds\":",
    "\"stage_seconds\":",
    "\"workload_cache\":",
];

/// The rendered reports of one run.
pub struct Outputs {
    texts: Vec<String>,
    /// AE/HP speedup and energy-reduction GMeans, on the suite.
    gmeans: Option<[f64; 4]>,
}

impl Outputs {
    /// Reports without a suite summary.
    pub fn plain(texts: Vec<String>) -> Self {
        Self {
            texts,
            gmeans: None,
        }
    }

    /// Suite reports plus the suite's GMeans.
    pub fn suite(texts: Vec<String>, results: &[TaskResult]) -> Self {
        let s = summarize(results);
        Self {
            texts,
            gmeans: Some([
                s.ae_speedup_gmean,
                s.hp_speedup_gmean,
                s.ae_energy_gmean,
                s.hp_energy_gmean,
            ]),
        }
    }

    /// FNV-1a digest of every report line, masked lines reduced to their key.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for text in &self.texts {
            for line in text.split_inclusive('\n') {
                let trimmed = line.trim_start();
                let bytes = match MASKED_KEYS.iter().find(|k| trimmed.starts_with(*k)) {
                    Some(key) => key.as_bytes(),
                    None => line.as_bytes(),
                };
                for &b in bytes {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    /// The GMeans, rendered exactly.
    fn gmeans_exact(&self) -> Option<String> {
        self.gmeans
            .map(|g| format!("{:?} {:?} {:?} {:?}", g[0], g[1], g[2], g[3]))
    }

    /// The model's error against the paper's suite GMeans, on the suite.
    pub fn model_error(&self) -> Option<String> {
        let g = self.gmeans?;
        let paper = [
            PAPER_GMEANS.0,
            PAPER_GMEANS.1,
            PAPER_GMEANS.2,
            PAPER_GMEANS.3,
        ];
        let labels = ["AE speedup", "HP speedup", "AE energy", "HP energy"];
        let parts: Vec<String> = (0..4)
            .map(|i| {
                let p = f64::from(paper[i]);
                format!(
                    "{} {:.4}x vs paper {p:.1}x ({:+.2}%)",
                    labels[i],
                    g[i],
                    (g[i] / p - 1.0) * 100.0
                )
            })
            .collect();
        Some(parts.join(", "))
    }

    /// This run's line of `expected.txt`.
    pub fn expected_lines(&self, w: &Workload) -> String {
        let mut out = format!("{} {} {:016x}\n", w.kind.name(), w.slot, self.digest());
        if let Some(g) = self.gmeans_exact() {
            out.push_str(&format!("gmeans {} {g}\n", w.kind.name()));
        }
        out
    }
}

/// Whether `outputs` match the pinned digest (and, on the suite, the
/// pinned GMeans) of `w`. A workload or slot with nothing pinned fails.
pub fn matches(w: &Workload, outputs: &Outputs) -> bool {
    let digest = format!("{:016x}", outputs.digest());
    let digest_line = [w.kind.name(), &w.slot.to_string(), &digest].join(" ");
    let pinned = |line: &str| EXPECTED.lines().any(|l| l.trim() == line);
    let gmeans_ok = match outputs.gmeans_exact() {
        Some(g) => pinned(&format!("gmeans {} {g}", w.kind.name())),
        None => w.kind != Kind::SuiteFull,
    };
    pinned(&digest_line) && gmeans_ok
}
