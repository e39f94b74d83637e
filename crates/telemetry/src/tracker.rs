//! A CodeCarbon-style job-level carbon tracker.
//!
//! [`CarbonTracker`] is the "easy-to-adopt telemetry" the paper calls for
//! (§V-A): workers record energy (or power × time) against ML phases; the
//! tracker keeps running totals and converts them into a
//! [`FootprintReport`] with both operational and amortized embodied carbon.
//!
//! The tracker is `Send + Sync` (internally a `parking_lot::Mutex`) so a
//! multi-threaded training job can record from every worker thread.

use parking_lot::Mutex;
use std::fmt;

use sustain_core::embodied::{AllocationPolicy, EmbodiedModel};
use sustain_core::footprint::{CarbonFootprint, FootprintReport};
use sustain_core::intensity::AccountingBasis;
use sustain_core::lifecycle::{Breakdown, MlPhase};
use sustain_core::operational::OperationalAccount;
use sustain_core::units::{Co2e, Energy, Power, TimeSpan};
use sustain_obs::Obs;

#[derive(Debug, Default)]
struct TrackerState {
    /// Every recorded energy, summed in record order.
    total: Energy,
    energy_by_phase: Breakdown<Energy>,
    machine_time: TimeSpan,
}

/// Accumulates energy/time records for one job and renders carbon reports.
///
/// ```rust
/// use sustain_telemetry::tracker::CarbonTracker;
/// use sustain_core::operational::OperationalAccount;
/// use sustain_core::intensity::{AccountingBasis, CarbonIntensity};
/// use sustain_core::lifecycle::MlPhase;
/// use sustain_core::pue::Pue;
/// use sustain_core::units::{Energy, Power, TimeSpan};
///
/// # fn main() -> Result<(), sustain_core::Error> {
/// let account = OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::new(1.1)?);
/// let tracker = CarbonTracker::new("rm1-training", account);
/// tracker.record_power(
///     MlPhase::OfflineTraining,
///     Power::from_watts(300.0),
///     TimeSpan::from_hours(2.0),
/// );
/// let report = tracker.report(AccountingBasis::LocationBased);
/// assert!(report.footprint.operational().as_grams() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct CarbonTracker {
    subject: String,
    account: OperationalAccount,
    embodied: Option<(EmbodiedModel, AllocationPolicy)>,
    state: Mutex<TrackerState>,
    obs: Obs,
}

impl fmt::Debug for CarbonTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CarbonTracker")
            .field("subject", &self.subject)
            .field("account", &self.account)
            .field("embodied", &self.embodied)
            .field("total_energy", &self.total_energy())
            .finish()
    }
}

impl CarbonTracker {
    /// Creates a tracker for a named job under an operational account.
    pub fn new(subject: impl Into<String>, account: OperationalAccount) -> CarbonTracker {
        CarbonTracker {
            subject: subject.into(),
            account,
            embodied: None,
            state: Mutex::new(TrackerState::default()),
            obs: sustain_obs::handle(),
        }
    }

    /// Enables embodied-carbon amortization: machine time recorded with
    /// [`CarbonTracker::record_machine_time`] is charged against `model`
    /// under `policy`.
    pub fn with_embodied(
        mut self,
        model: EmbodiedModel,
        policy: AllocationPolicy,
    ) -> CarbonTracker {
        self.embodied = Some((model, policy));
        self
    }

    /// Records an energy consumption against a phase.
    pub fn record_energy(&self, phase: MlPhase, energy: Energy) {
        {
            let mut st = self.state.lock();
            st.total += energy;
            st.energy_by_phase[phase] += energy;
        }
        if self.obs.enabled() {
            self.obs.counter("tracker_records_total").inc();
            self.obs
                .counter("tracker_energy_joules_total")
                .add(energy.as_joules());
        }
    }

    /// Records a constant power draw over a duration.
    pub fn record_power(&self, phase: MlPhase, power: Power, duration: TimeSpan) {
        self.record_energy(phase, power * duration);
    }

    /// Records machine occupancy time for embodied amortization.
    pub fn record_machine_time(&self, span: TimeSpan) {
        self.state.lock().machine_time += span;
    }

    /// Total recorded IT energy.
    pub fn total_energy(&self) -> Energy {
        self.state.lock().total
    }

    /// The amortized embodied carbon so far (zero if not configured).
    pub fn embodied_co2(&self) -> Co2e {
        match &self.embodied {
            Some((model, policy)) => {
                let span = self.state.lock().machine_time;
                model
                    .amortize(span, *policy)
                    // lint:allow(panic-discipline) machine_time only accumulates non-negative spans
                    .expect("recorded machine time is non-negative")
            }
            None => Co2e::ZERO,
        }
    }

    /// Renders the current totals as a [`FootprintReport`].
    pub fn report(&self, basis: AccountingBasis) -> FootprintReport {
        let _span = self.obs.span("tracker.report");
        let (total, by_phase) = {
            let st = self.state.lock();
            (st.total, st.energy_by_phase)
        };
        let operational = self.account.emissions(total, basis);
        let footprint = CarbonFootprint::new(operational, self.embodied_co2());
        let mut report = FootprintReport::new(&self.subject, basis, total, footprint);
        for (phase, e) in by_phase.iter() {
            report.record_phase(phase, self.account.emissions(e, basis));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_core::intensity::CarbonIntensity;
    use sustain_core::pue::Pue;
    use sustain_core::units::Fraction;

    fn account() -> OperationalAccount {
        OperationalAccount::new(
            CarbonIntensity::from_grams_per_kwh(400.0),
            Pue::new(1.1).unwrap(),
        )
    }

    #[test]
    fn accumulates_a_running_total() {
        let t = CarbonTracker::new("job", account());
        t.record_energy(MlPhase::OfflineTraining, Energy::from_kilowatt_hours(1.0));
        t.record_energy(MlPhase::OfflineTraining, Energy::from_kilowatt_hours(2.0));
        t.record_energy(MlPhase::DataProcessing, Energy::from_kilowatt_hours(0.5));
        assert_eq!(t.total_energy(), Energy::from_kilowatt_hours(3.5));
    }

    #[test]
    fn report_applies_account() {
        let t = CarbonTracker::new("job", account());
        t.record_energy(MlPhase::Inference, Energy::from_kilowatt_hours(10.0));
        let r = t.report(AccountingBasis::LocationBased);
        // 10 kWh × 1.1 × 400 g = 4.4 kg.
        assert!((r.footprint.operational().as_kilograms() - 4.4).abs() < 1e-9);
        assert!(r.is_phase_consistent(Co2e::from_grams(1e-6)));
        assert_eq!(r.subject, "job");
    }

    #[test]
    fn market_based_report_respects_matching() {
        let acct = account().with_renewable_matching(Fraction::ONE);
        let t = CarbonTracker::new("green-job", acct);
        t.record_energy(MlPhase::Inference, Energy::from_kilowatt_hours(5.0));
        assert!(t
            .report(AccountingBasis::MarketBased)
            .footprint
            .operational()
            .is_zero());
        assert!(!t
            .report(AccountingBasis::LocationBased)
            .footprint
            .operational()
            .is_zero());
    }

    #[test]
    fn embodied_amortization_in_report() {
        let t = CarbonTracker::new("job", account()).with_embodied(
            EmbodiedModel::gpu_server().unwrap(),
            AllocationPolicy::TimeShare,
        );
        t.record_machine_time(TimeSpan::from_years(1.0));
        // 2000 kg over 4 years → 500 kg for a year.
        assert!((t.embodied_co2().as_kilograms() - 500.0).abs() < 1e-6);
        let r = t.report(AccountingBasis::LocationBased);
        assert!((r.footprint.embodied().as_kilograms() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn no_embodied_configured_is_zero() {
        let t = CarbonTracker::new("job", account());
        t.record_machine_time(TimeSpan::from_years(10.0));
        assert!(t.embodied_co2().is_zero());
    }

    #[test]
    fn record_power_is_energy_shortcut() {
        let t = CarbonTracker::new("job", account());
        t.record_power(
            MlPhase::OfflineTraining,
            Power::from_kilowatts(1.0),
            TimeSpan::from_hours(2.0),
        );
        assert_eq!(t.total_energy(), Energy::from_kilowatt_hours(2.0));
    }

    #[test]
    fn tracker_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CarbonTracker>();
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let t = Arc::new(CarbonTracker::new("job", account()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        t.record_energy(MlPhase::OfflineTraining, Energy::from_joules(1.0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!((t.total_energy().as_joules() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = CarbonTracker::new("job", account());
        assert!(format!("{t:?}").contains("CarbonTracker"));
    }
}
