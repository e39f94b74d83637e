//! Property-based tests (proptest) on the core data structures and
//! cross-crate invariants.

use proptest::prelude::*;

use sustainai::core::embodied::{AllocationPolicy, EmbodiedModel};
use sustainai::core::intensity::CarbonIntensity;
use sustainai::core::stats::{percentile, Histogram, LogNormal};
use sustainai::core::units::{Co2e, Energy, Fraction, Power, TimeSpan};
use sustainai::fleet::scheduler::{schedule, IntensitySeries, Policy, ScheduledJob};
use sustainai::fleet::storage::Battery;
use sustainai::optim::cache::{CachePolicy, KeyCache};
use sustainai::optim::pareto::{pareto_frontier, Candidate};

proptest! {
    #[test]
    fn energy_unit_conversions_round_trip(kwh in 0.0f64..1e9) {
        let e = Energy::from_kilowatt_hours(kwh);
        prop_assert!((e.as_joules() / 3.6e6 - kwh).abs() < kwh.abs() * 1e-12 + 1e-9);
        prop_assert!((Energy::from_joules(e.as_joules()).as_kilowatt_hours() - kwh).abs()
            < kwh.abs() * 1e-12 + 1e-9);
    }

    #[test]
    fn power_time_energy_triangle(watts in 0.0f64..1e7, hours in 0.0f64..1e5) {
        let p = Power::from_watts(watts);
        let t = TimeSpan::from_hours(hours);
        let e = p * t;
        prop_assert_eq!(e, t * p);
        if hours > 0.0 {
            let back = e / t;
            prop_assert!((back.as_watts() - watts).abs() < watts.abs() * 1e-9 + 1e-9);
        }
        if watts > 0.0 {
            let back = e / p;
            prop_assert!((back.as_hours() - hours).abs() < hours.abs() * 1e-9 + 1e-9);
        }
    }

    #[test]
    fn emissions_scale_linearly_with_energy_and_intensity(
        kwh in 0.0f64..1e6,
        g_per_kwh in 0.0f64..2000.0,
        k in 0.0f64..100.0,
    ) {
        let i = CarbonIntensity::from_grams_per_kwh(g_per_kwh);
        let e = Energy::from_kilowatt_hours(kwh);
        let base = i.emissions(e);
        let scaled = i.emissions(e * k);
        prop_assert!((scaled.as_grams() - base.as_grams() * k).abs()
            < base.as_grams().abs() * k * 1e-9 + 1e-6);
    }

    #[test]
    fn fraction_saturating_always_valid(x in -10.0f64..10.0) {
        let f = Fraction::saturating(x);
        prop_assert!((0.0..=1.0).contains(&f.value()));
        prop_assert!((f.value() + f.complement().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn embodied_amortization_is_linear_and_bounded(
        days in 0.0f64..1461.0,
        util in 0.05f64..1.0,
    ) {
        let m = EmbodiedModel::gpu_server()
            .unwrap()
            .with_expected_utilization(Fraction::saturating(util))
            .unwrap();
        let span = TimeSpan::from_days(days);
        let time_share = m.amortize(span, AllocationPolicy::TimeShare).unwrap();
        // Time-share never exceeds the total within the lifetime.
        prop_assert!(time_share <= m.total() * 1.0000001);
        // Usage-share is time-share inflated by 1/utilization.
        let usage = m.amortize(span, AllocationPolicy::UsageShare).unwrap();
        prop_assert!((usage.as_grams() - time_share.as_grams() / util).abs()
            < usage.as_grams().abs() * 1e-9 + 1e-6);
    }

    #[test]
    fn battery_never_overflows_or_goes_negative(
        ops in prop::collection::vec((0.0f64..10.0, 0.0f64..5.0, any::<bool>()), 1..60),
    ) {
        let mut battery = Battery::new(
            Energy::from_megawatt_hours(5.0),
            Power::from_megawatts(3.0),
            Fraction::saturating(0.9),
        );
        let mut drawn = Energy::ZERO;
        let mut delivered = Energy::ZERO;
        for (mw, hours, charge) in ops {
            let p = Power::from_megawatts(mw);
            let t = TimeSpan::from_hours(hours);
            if charge {
                drawn += battery.charge(p, t);
            } else {
                delivered += battery.discharge(p, t);
            }
            prop_assert!(battery.stored() >= Energy::ZERO);
            prop_assert!(battery.stored() <= battery.capacity() * 1.0000001);
        }
        // Energy conservation: what came out never exceeds efficiency × input.
        prop_assert!(delivered.as_joules() <= drawn.as_joules() * 0.9 + 1.0);
    }

    #[test]
    fn cache_respects_capacity_and_hit_rate_bounds(
        capacity in 1usize..64,
        keys in prop::collection::vec(0u64..100, 1..500),
    ) {
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut cache = KeyCache::new(policy, capacity);
            for &k in &keys {
                cache.access(k);
            }
            prop_assert!(cache.len() <= capacity);
            let rate = cache.hit_rate().value();
            prop_assert!((0.0..=1.0).contains(&rate));
            prop_assert_eq!(cache.hits() + cache.misses(), keys.len() as u64);
        }
    }

    #[test]
    fn pareto_frontier_points_are_non_dominated(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..1.0), 1..200),
    ) {
        let candidates: Vec<Candidate> = pts
            .iter()
            .enumerate()
            .map(|(i, (c, e))| Candidate::new(i as u64, *c, *e))
            .collect();
        let frontier = pareto_frontier(&candidates);
        prop_assert!(!frontier.is_empty());
        for f in &frontier {
            for c in &candidates {
                prop_assert!(!c.dominates(f), "frontier point {f:?} dominated by {c:?}");
            }
        }
        // Every candidate is covered: dominated by or equal to a frontier point.
        for c in &candidates {
            let covered = frontier
                .iter()
                .any(|f| f.dominates(c) || (f.cost == c.cost && f.error == c.error));
            prop_assert!(covered, "candidate {c:?} not covered");
        }
    }

    #[test]
    fn lognormal_calibration_round_trips(
        median in 0.01f64..100.0,
        p99_mult in 1.1f64..1000.0,
    ) {
        let p99 = median * p99_mult;
        let d = LogNormal::from_median_p99(median, p99).unwrap();
        prop_assert!((d.median() - median).abs() < median * 1e-9);
        prop_assert!((d.p99() - p99).abs() < p99 * 1e-9);
        prop_assert!((d.quantile(0.5) - median).abs() < median * 1e-6);
    }

    #[test]
    fn histogram_conserves_observations(
        values in prop::collection::vec(-2.0f64..3.0, 0..300),
    ) {
        let mut h = Histogram::new(0.0, 1.0, 7).unwrap();
        for v in &values {
            h.record(*v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
        let mass: u64 = h.counts().iter().sum();
        prop_assert_eq!(mass, values.len() as u64);
    }

    #[test]
    fn percentile_is_monotone_and_bounded(
        values in prop::collection::vec(-1e6f64..1e6, 2..100),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&values, lo);
        let b = percentile(&values, hi);
        prop_assert!(a <= b);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(a >= min && b <= max);
    }

    #[test]
    fn carbon_aware_never_beats_immediate_in_reverse(
        arrivals in prop::collection::vec(0usize..48, 1..20),
        slack in 1usize..24,
    ) {
        // With no concurrency cap, carbon-aware always does at least as well
        // as immediate: the arrival slot is always a candidate.
        let jobs: Vec<ScheduledJob> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| ScheduledJob::new(i as u64, a, 2, Energy::from_kilowatt_hours(10.0)))
            .collect();
        let series = IntensitySeries::solar_day(3);
        let immediate = schedule(&jobs, &series, Policy::Immediate, None);
        let aware = schedule(
            &jobs,
            &series,
            Policy::CarbonAware { max_delay_hours: slack },
            None,
        );
        prop_assert!(aware.total_co2() <= immediate.total_co2() + Co2e::from_grams(1e-6));
    }

    #[test]
    fn follow_the_sun_never_loses_to_home_region(
        arrivals in prop::collection::vec(0usize..48, 1..16),
    ) {
        use sustainai::fleet::geo::{follow_the_sun_fleet, place, GeoJob, GeoPolicy};
        let jobs: Vec<GeoJob> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| GeoJob {
                id: i as u64,
                arrival_hour: a,
                duration_hours: 2,
                energy: Energy::from_kilowatt_hours(10.0),
            })
            .collect();
        // Uncapped regions: the home region is always a candidate, so
        // follow-the-sun can never do worse.
        let regions = follow_the_sun_fleet(3, usize::MAX / 2);
        let home = place(&jobs, &regions, GeoPolicy::HomeRegion);
        let sun = place(&jobs, &regions, GeoPolicy::FollowTheSun);
        prop_assert!(sun.total_co2() <= home.total_co2() + Co2e::from_grams(1e-6));
    }

    #[test]
    fn packing_conserves_demand_and_respects_capacity(
        demands in prop::collection::vec(0.05f64..1.0, 1..40),
    ) {
        use sustainai::optim::multitenancy::{dedicated, pack, Tenant};
        let tenants: Vec<Tenant> = demands
            .iter()
            .map(|&d| Tenant::new(Fraction::saturating(d), 8.0))
            .collect();
        let packed = pack(&tenants);
        let alone = dedicated(&tenants);
        prop_assert!(packed.devices >= 1);
        prop_assert!(packed.devices <= alone.devices);
        // No device overfull; total occupancy equals total demand.
        let total_demand: f64 = demands.iter().sum();
        let total_occ: f64 = packed.occupancy.iter().map(|o| o.value()).sum();
        prop_assert!((total_occ - total_demand).abs() < 1e-6);
        for occ in &packed.occupancy {
            prop_assert!(occ.value() <= 1.0 + 1e-9);
        }
        // And at least the fractional lower bound of devices is used.
        prop_assert!(packed.devices as f64 >= total_demand - 1e-9);
    }

    #[test]
    fn embodied_per_year_is_decreasing_in_lifetime(
        years_a in 1.0f64..20.0,
        delta in 0.1f64..10.0,
    ) {
        use sustainai::fleet::lifetime::LifetimeTradeoff;
        let t = LifetimeTradeoff::gpu_server();
        let a = t.at(TimeSpan::from_years(years_a));
        let b = t.at(TimeSpan::from_years(years_a + delta));
        prop_assert!(b.embodied_per_year < a.embodied_per_year);
        prop_assert!(b.mitigation_per_year >= a.mitigation_per_year);
    }

    #[test]
    fn data_pipeline_power_is_monotone(
        pb in 1.0f64..1000.0,
        gbps in 1.0f64..5000.0,
        scale in 1.0f64..4.0,
    ) {
        use sustainai::core::units::{DataRate, DataVolume};
        use sustainai::workload::datapipeline::DataPipeline;
        let base = DataPipeline::new(
            DataVolume::from_petabytes(pb),
            Fraction::saturating(0.2),
            DataRate::from_gigabytes_per_sec(gbps),
            100e-9,
        );
        let grown = base.grown(scale, scale);
        prop_assert!(grown.total_power() >= base.total_power());
        prop_assert!(grown.storage_embodied() >= base.storage_embodied());
    }

    #[test]
    fn energy_rollup_equals_sum_of_leaves(
        leaves in prop::collection::vec((0u8..4, 0u8..4, 10.0f64..500.0), 1..32),
    ) {
        use sustainai::telemetry::hierarchy::EnergyRollup;
        let mut rollup = EnergyRollup::new();
        let mut total = Energy::ZERO;
        for (i, (rack, host, watts)) in leaves.iter().enumerate() {
            let leaf = Power::from_watts(*watts) * TimeSpan::from_hours(1.0);
            total += leaf;
            rollup.add(&format!("r{rack}/h{host}/g{i}"), leaf);
        }
        // The root sums the leaves in the order they were added, so it is
        // the running total to the bit; the racks regroup the same leaves.
        prop_assert_eq!(rollup.energy(""), total);
        let racks: Energy = rollup.children("").values().copied().sum();
        prop_assert!((racks.as_joules() - total.as_joules()).abs() <= 1e-12 * total.as_joules());
    }

    #[test]
    fn campaign_early_stop_factor_bounds(
        checkpoint in 0.01f64..1.0,
        survivors in 0.01f64..1.0,
    ) {
        use sustainai::workload::experimentation::Campaign;
        let c = Campaign::new(4, 4).with_early_stopping(checkpoint, survivors);
        let factor = c.early_stop_cost_factor();
        prop_assert!(factor <= 1.0 + 1e-12);
        prop_assert!(factor >= checkpoint.min(survivors) - 1e-12);
    }

    #[test]
    fn footprint_shares_partition(op in 0.0f64..1e9, emb in 0.0f64..1e9) {
        prop_assume!(op + emb > 0.0);
        let fp = sustainai::core::footprint::CarbonFootprint::new(
            Co2e::from_grams(op),
            Co2e::from_grams(emb),
        );
        let sum = fp.embodied_share().value() + fp.operational_share().value();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }
}
