//! Fleet-scale scenario: a month of research-cluster training on a simulated
//! GPU fleet, reported under both accounting bases — the workload the paper's
//! Figure 10 (utilization) and Figure 5 (embodied share) describe.
//!
//! ```sh
//! cargo run --example fleet_report
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustainai::core::intensity::{AccountingBasis, GridRegion};
use sustainai::core::units::{Power, TimeSpan};
use sustainai::fleet::cluster::Cluster;
use sustainai::fleet::datacenter::DataCenter;
use sustainai::fleet::sim::{FleetSim, Scenario};
use sustainai::fleet::utilization::UtilizationModel;
use sustainai::workload::training::{JobClass, JobGenerator};

fn main() -> Result<(), sustainai::core::Error> {
    let sim = FleetSim::new(
        Cluster::gpu_training(100),
        DataCenter::hyperscale(
            "prineville",
            GridRegion::UsAverage,
            Power::from_megawatts(20.0),
        ),
        JobGenerator::calibrated(JobClass::Research)?,
        UtilizationModel::research_cluster(),
        80.0, // research workflows arriving per day
        TimeSpan::from_days(30.0),
    );
    let report = sim.simulate(&Scenario::default(), &mut StdRng::seed_from_u64(2024));

    println!("30-day research fleet simulation (100 GPU servers, 800 GPUs)");
    println!("  IT energy:            {}", report.it_energy);
    println!("  jobs completed:       {}", report.jobs_completed);
    println!("  jobs outstanding:     {}", report.jobs_outstanding);
    println!("  mean GPU allocation:  {}", report.mean_allocation);
    println!("  mean busy utilization:{}", report.mean_busy_utilization);
    println!();
    for basis in [AccountingBasis::LocationBased, AccountingBasis::MarketBased] {
        let fp = report.footprint(basis);
        println!("  [{basis}]");
        println!("    operational:    {}", fp.operational());
        println!("    embodied:       {}", fp.embodied());
        println!("    total:          {}", fp.total());
        println!("    embodied share: {}", fp.embodied_share());
    }
    println!();
    println!(
        "With full renewable matching the operational side vanishes and the \
         embodied carbon of the {} servers dominates — the paper's Figure 5/9 story.",
        100
    );
    Ok(())
}
