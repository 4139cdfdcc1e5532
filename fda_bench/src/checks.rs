//! Output checks. Every failure is a line of text and one count in the
//! run's `failed`; a run with any failure reports `correct: false` and
//! exits non-zero.

use fda_core::fda::Fda;
use fda_core::strategy::Strategy;
use fda_core::wire::JobSpec;
use fda_net::NetReport;

/// FNV-1a (64-bit) over the parameters' bit patterns — the digest two
/// runs must share to count as bit-identical. Kept here, apart from
/// `fda_net::frame::fnv1a_32`, so the checker does not lean on a layer it
/// checks.
pub fn digest<'a>(vectors: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vectors {
        for x in v {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// What the bit-identity invariant compares between two drivers of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    pub decisions: Vec<bool>,
    /// Bit patterns of the per-round estimates `H(S̄)`.
    pub estimates: Vec<u32>,
    /// [`digest`] over every worker's final parameters, in worker order.
    pub digest: u64,
    pub charged_bytes: u64,
}

impl Trajectory {
    pub fn of_report(report: &NetReport) -> Trajectory {
        Trajectory {
            decisions: report.decisions.clone(),
            estimates: report.estimates.iter().map(|e| e.to_bits()).collect(),
            digest: digest(report.worker_params.iter().map(Vec::as_slice)),
            charged_bytes: report.charged_bytes,
        }
    }

    /// Steps the sequential simulator through `steps` rounds.
    pub fn of_simulator(sim: &mut Fda, steps: u32) -> Trajectory {
        let mut decisions = Vec::with_capacity(steps as usize);
        let mut estimates = Vec::with_capacity(steps as usize);
        for _ in 0..steps {
            let out = sim.step();
            decisions.push(out.synced);
            estimates.push(out.variance_estimate.map_or(0, f32::to_bits));
        }
        let cluster = sim.cluster();
        let params: Vec<Vec<f32>> = (0..cluster.workers())
            .map(|k| cluster.worker(k).params())
            .collect();
        Trajectory {
            decisions,
            estimates,
            digest: digest(params.iter().map(Vec::as_slice)),
            charged_bytes: sim.comm_bytes(),
        }
    }
}

/// Differences between two trajectories of the same job; empty when they
/// are bit-identical.
pub fn trajectory_mismatches(what: &str, a: &Trajectory, b: &Trajectory) -> Vec<String> {
    let mut out = Vec::new();
    if a.decisions != b.decisions {
        out.push(format!("{what}: sync decisions differ"));
    }
    if a.estimates != b.estimates {
        out.push(format!("{what}: variance-estimate bits differ"));
    }
    if a.digest != b.digest {
        out.push(format!(
            "{what}: final-parameter digest {:016x} != {:016x}",
            a.digest, b.digest
        ));
    }
    if a.charged_bytes != b.charged_bytes {
        out.push(format!(
            "{what}: charged bytes {} != {}",
            a.charged_bytes, b.charged_bytes
        ));
    }
    out
}

/// Invariants every timed TCP job must satisfy on its own.
pub fn report_violations(job: &JobSpec, report: &NetReport) -> Vec<String> {
    let mut out = Vec::new();
    if report.measured_payload_bytes != report.charged_bytes {
        out.push(format!(
            "measured payload {} != charged {}",
            report.measured_payload_bytes, report.charged_bytes
        ));
    }
    let everyone: Vec<u32> = (0..job.cluster.workers as u32).collect();
    if report.survivors != everyone {
        out.push(format!("survivors {:?} != {everyone:?}", report.survivors));
    }
    if report.decisions.len() != job.steps as usize {
        out.push(format!(
            "{} rounds decided of {}",
            report.decisions.len(),
            job.steps
        ));
    }
    if !fda_tensor::vector::all_finite(&report.final_params) {
        out.push("non-finite final parameters".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trajectory {
        Trajectory {
            decisions: vec![false, true, false],
            estimates: vec![1, 2, 3],
            digest: digest([[1.0f32, 2.0].as_slice()]),
            charged_bytes: 4096,
        }
    }

    #[test]
    fn identical_trajectories_pass() {
        assert!(trajectory_mismatches("t", &sample(), &sample()).is_empty());
    }

    /// The acceptance criterion's demonstration: a corrupted digest is a
    /// reported failure (and `main` turns any failure into a non-zero exit).
    #[test]
    fn corrupted_digest_is_reported() {
        let mut bad = sample();
        bad.digest ^= 1;
        let failures = trajectory_mismatches("tcp vs simulator", &sample(), &bad);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("digest"), "{failures:?}");
    }

    #[test]
    fn every_field_is_compared() {
        let mut bad = sample();
        bad.decisions[0] = true;
        bad.estimates[2] = 9;
        bad.charged_bytes += 1;
        assert_eq!(trajectory_mismatches("t", &sample(), &bad).len(), 3);
    }

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let a = digest([[1.0f32, 2.0].as_slice()]);
        assert_ne!(a, digest([[2.0f32, 1.0].as_slice()]));
        assert_ne!(
            a,
            digest([[1.0f32, f32::from_bits(2.0f32.to_bits() ^ 1)].as_slice()])
        );
        assert_eq!(a, digest([[1.0f32].as_slice(), [2.0f32].as_slice()]));
    }
}
