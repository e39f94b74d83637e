//! The §V-A call-to-action, executed: measure a training job with the
//! tracker, then emit the carbon impact statement / model card the paper
//! says every published model should carry.
//!
//! ```sh
//! cargo run --example model_card
//! ```

use sustainai::core::embodied::{AllocationPolicy, EmbodiedModel};
use sustainai::core::intensity::{AccountingBasis, CarbonIntensity};
use sustainai::core::lifecycle::MlPhase;
use sustainai::core::metrics::{Leaderboard, MeasuredCandidate, Ranking};
use sustainai::core::modelcard::CarbonCard;
use sustainai::core::operational::OperationalAccount;
use sustainai::core::pue::Pue;
use sustainai::core::units::{Co2e, Power, TimeSpan};
use sustainai::telemetry::tracker::CarbonTracker;

fn main() -> Result<(), sustainai::core::Error> {
    // 1. Measure: a 64-GPU, 16-hour PAWS-style pre-training run.
    let account = OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::new(1.1)?);
    let tracker = CarbonTracker::new("paws-rn50", account)
        .with_embodied(EmbodiedModel::gpu_server()?, AllocationPolicy::UsageShare);
    let runtime = TimeSpan::from_hours(16.0);
    for _gpu in 0..64 {
        tracker.record_power(MlPhase::OfflineTraining, Power::from_watts(250.0), runtime);
    }
    tracker.record_machine_time(runtime * 8.0); // 8 servers × 16 h

    let report = tracker.report(AccountingBasis::LocationBased);

    // 2. Disclose: build the model card.
    let card = CarbonCard::builder("PAWS ResNet-50 (10% labels)")
        .hardware("8x (8x NVIDIA V100) servers", 8, runtime)
        .energy(report.energy)
        .accounting(
            CarbonIntensity::US_AVERAGE_2021,
            Pue::new(1.1)?,
            AccountingBasis::LocationBased,
        )
        .training(report.footprint)
        .note("energy from simulated NVML counters; embodied amortized usage-share")
        .note("semi-supervised pre-training, 200 epochs, 75.5% top-1")
        .build()?;
    println!("{card}");

    // 3. Compare: a sustainability-aware leaderboard (quality within budget).
    let mut board = Leaderboard::new();
    board.add(MeasuredCandidate::new(
        "paws-rn50",
        0.755,
        report.energy,
        report.footprint,
        0.0,
    )?);
    board.add(MeasuredCandidate::new(
        "simclr-rn50",
        0.693,
        report.energy * 5.0, // 1000 epochs vs 200
        report.footprint * 5.0,
        0.0,
    )?);
    let winner = board
        .winner(Ranking::QualityWithinBudget {
            budget: Co2e::from_tonnes(1.0),
        })
        .expect("at least one candidate within budget");
    println!(
        "leaderboard winner within a 1 tCO2e budget: {} ({:.1}% top-1, {})",
        winner.name,
        winner.quality * 100.0,
        winner.footprint.total()
    );
    Ok(())
}
