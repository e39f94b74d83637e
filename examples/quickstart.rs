//! Quickstart: track the carbon footprint of one training job.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sustainai::core::embodied::{AllocationPolicy, EmbodiedModel};
use sustainai::core::equivalence::Equivalences;
use sustainai::core::intensity::{AccountingBasis, CarbonIntensity};
use sustainai::core::lifecycle::MlPhase;
use sustainai::core::operational::OperationalAccount;
use sustainai::core::pue::Pue;
use sustainai::core::units::{Power, TimeSpan};
use sustainai::telemetry::tracker::CarbonTracker;

fn main() -> Result<(), sustainai::core::Error> {
    // A hyperscale datacenter on the US grid with 100% renewable matching.
    let account = OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::new(1.1)?)
        .with_renewable_matching(sustainai::core::units::Fraction::new(1.0)?);

    // Track an 8-GPU, 3-day production training job.
    let tracker = CarbonTracker::new("rm1-weekly-retrain", account)
        .with_embodied(EmbodiedModel::gpu_server()?, AllocationPolicy::UsageShare);
    let run = TimeSpan::from_days(3.0);
    for _gpu in 0..8 {
        tracker.record_power(MlPhase::OfflineTraining, Power::from_watts(300.0), run);
    }
    tracker.record_machine_time(run);

    let location = tracker.report(AccountingBasis::LocationBased);
    let market = tracker.report(AccountingBasis::MarketBased);

    println!("{location}");
    println!();
    println!(
        "market-based operational (100% renewable matching): {}",
        market.footprint.operational()
    );
    println!(
        "embodied share under market basis: {}",
        market.footprint.embodied_share()
    );
    println!();
    println!(
        "location-based total {} {}",
        location.footprint.total(),
        Equivalences::of(location.footprint.total())
    );
    Ok(())
}
