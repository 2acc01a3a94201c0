//! Workload presets shared by the experiment binaries.

use tiresias_datagen::{
    ccd_location_spec, ccd_trouble_tree_with_mix, scd_location_spec, Workload, WorkloadConfig,
};

/// One day of 15-minute timeunits.
pub const UNITS_PER_DAY: usize = 96;
/// One week of 15-minute timeunits.
pub const UNITS_PER_WEEK: usize = 672;

/// CCD trouble-description workload with the Table-I ticket mix and the
/// CCD seasonal profile.
pub fn ccd_trouble_workload(scale: f64, base_rate: f64, seed: u64) -> Workload {
    let (tree, mix) = ccd_trouble_tree_with_mix(scale);
    Workload::with_popularity(tree, WorkloadConfig::ccd(base_rate), &mix, seed)
}

/// CCD network-location workload (SHO → VHO → IO → CO → DSLAM).
pub fn ccd_location_workload(scale: f64, base_rate: f64, seed: u64) -> Workload {
    let tree = ccd_location_spec(scale).build().expect("static spec is valid");
    Workload::new(tree, WorkloadConfig::ccd(base_rate), seed)
}

/// SCD crash-log workload (National → CO → DSLAM → STB).
pub fn scd_workload(scale: f64, base_rate: f64, seed: u64) -> Workload {
    let tree = scd_location_spec(scale).build().expect("static spec is valid");
    Workload::new(tree, WorkloadConfig::scd(base_rate), seed)
}

/// Aggregates consecutive base units into coarser timeunits (e.g. four
/// 15-minute vectors into one 1-hour vector) — used by the Δ sweep of
/// Table III.
pub fn coarsen_units(units: &[Vec<f64>], factor: usize) -> Vec<Vec<f64>> {
    assert!(factor > 0, "aggregation factor must be positive");
    units
        .chunks(factor)
        .map(|chunk| {
            let len = chunk.iter().map(Vec::len).max().unwrap_or(0);
            let mut acc = vec![0.0; len];
            for u in chunk {
                for (a, v) in acc.iter_mut().zip(u.iter()) {
                    *a += *v;
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build() {
        let w = ccd_trouble_workload(0.3, 50.0, 1);
        assert!(w.tree().len() > 10);
        let w = ccd_location_workload(0.05, 50.0, 1);
        assert_eq!(w.tree().max_depth(), 4);
        let w = scd_workload(0.002, 50.0, 1);
        assert_eq!(w.tree().max_depth(), 3);
    }

    #[test]
    fn coarsen_sums_chunks() {
        let units = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let coarse = coarsen_units(&units, 2);
        assert_eq!(coarse, vec![vec![4.0, 6.0], vec![5.0, 6.0]]);
    }

    #[test]
    fn coarsen_handles_growing_trees() {
        let units = vec![vec![1.0], vec![2.0, 3.0]];
        let coarse = coarsen_units(&units, 2);
        assert_eq!(coarse, vec![vec![3.0, 3.0]]);
    }
}
