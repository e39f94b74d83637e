//! Differential property suite for the batched integration kernel.
//!
//! The batched entry point ([`FaultTolerantIntegrator::push_batch_observed`])
//! promises *bitwise* equivalence with the per-sample `push` path — same
//! float accumulation order, same tallies, same imputation — for any sample
//! sequence and any way of cutting it into batches. These properties drive
//! arbitrary fault shapes (lost ticks, out-of-order stragglers, gaps past
//! the detection limit) through both paths at arbitrary batch boundaries
//! and require identical end states. Lost ticks reach the integrator
//! through `push(at, None)` between batches, as the stream pipeline
//! delivers late arrivals.

use proptest::prelude::*;

use sustain_core::units::{Power, TimeSpan};
use sustain_telemetry::faults::ImputationPolicy;
use sustain_telemetry::meter::FaultTolerantIntegrator;

/// Decodes a proptest-generated tick list into a fault-bearing sample
/// sequence. Per tick, the kind byte selects the timestamp step — clean
/// (+1 s), a gap past the detection limit (+4.5 s), or an out-of-order
/// regression (−0.6 s) — and whether the reading was lost (`None`).
fn decode(ticks: &[(u8, f64)]) -> Vec<(TimeSpan, Option<Power>)> {
    let mut at = 100.0f64;
    ticks
        .iter()
        .map(|&(kind, watts)| {
            at += match kind % 8 {
                0 => -0.6,
                1 => 4.5,
                _ => 1.0,
            };
            let sample = (kind % 8 != 2).then(|| Power::from_watts(watts));
            (TimeSpan::from_secs(at), sample)
        })
        .collect()
}

/// Turns raw cut points into sorted, deduplicated batch boundaries over
/// `len` samples, always including both ends.
fn boundaries(cuts: &[usize], len: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (len + 1)).collect();
    bounds.push(0);
    bounds.push(len);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

fn policy(pick: u8) -> ImputationPolicy {
    match pick % 3 {
        0 => ImputationPolicy::Linear,
        1 => ImputationPolicy::LastObservation,
        _ => ImputationPolicy::ModelBased {
            assumed: Power::from_watts(111.0),
        },
    }
}

/// The observed readings of `samples`, dropping lost ticks.
fn observed(samples: &[(TimeSpan, Option<Power>)]) -> Vec<(TimeSpan, Power)> {
    samples
        .iter()
        .filter_map(|&(t, p)| p.map(|p| (t, p)))
        .collect()
}

proptest! {
    /// Observed runs fed through `push_batch_observed` at arbitrary batch
    /// boundaries, with each lost tick pushed as `None` between batches,
    /// are bitwise identical to per-sample pushes: same quality report,
    /// same measured/imputed energy bits, same resume point.
    #[test]
    fn fault_tolerant_batches_are_split_invariant(
        ticks in prop::collection::vec((0u8..255, 1.0f64..500.0), 1..120),
        cuts in prop::collection::vec(0usize..128, 0..6),
        pick in 0u8..255,
    ) {
        let samples = decode(&ticks);
        let interval = TimeSpan::from_secs(1.0);

        let mut reference = FaultTolerantIntegrator::new(interval, policy(pick));
        let mut accepted_ref = 0usize;
        for &(at, p) in &samples {
            accepted_ref += usize::from(reference.push(at, p) && p.is_some());
        }

        let mut batched = FaultTolerantIntegrator::new(interval, policy(pick));
        let mut accepted_batch = 0usize;
        for pair in boundaries(&cuts, samples.len()).windows(2) {
            let part = &samples[pair[0]..pair[1]];
            for run in part.split_inclusive(|&(_, p)| p.is_none()) {
                accepted_batch += batched.push_batch_observed(&observed(run));
                if let Some(&(at, None)) = run.last() {
                    batched.push(at, None);
                }
            }
        }

        prop_assert_eq!(accepted_ref, accepted_batch);
        prop_assert_eq!(reference.last_sample(), batched.last_sample());
        let (r, b) = (reference.report(), batched.report());
        prop_assert_eq!(&r, &b);
        prop_assert_eq!(
            r.measured_energy.as_joules().to_bits(),
            b.measured_energy.as_joules().to_bits(),
            "measured energy must match bit for bit"
        );
        prop_assert_eq!(
            r.imputed_energy.as_joules().to_bits(),
            b.imputed_energy.as_joules().to_bits(),
            "imputed energy must match bit for bit"
        );
    }
}
