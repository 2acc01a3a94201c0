//! Integration of the sketch substrate with the heavy hitter machinery:
//! Space-Saving candidate generation feeding exact SHHH computation.

use proptest::prelude::*;

use tiresias::hierarchy::HierarchySpec;
use tiresias::sketch::SpaceSaving;

#[test]
fn space_saving_preserves_theta_heavy_leaves() {
    // Any leaf with true count ≥ θ must be monitored when the budget
    // exceeds N/θ — the standard guarantee, applied to SHHH candidates.
    let tree = HierarchySpec::new("All").level("A", 10).level("B", 20).build().unwrap();
    let leaves: Vec<_> = tree.iter().filter(|&n| tree.is_leaf(n)).collect();
    let theta = 50u64;
    let mut counts = vec![0u64; tree.len()];
    // Three genuinely heavy leaves + diffuse tail.
    for (i, &l) in leaves.iter().enumerate() {
        counts[l.index()] = match i {
            3 => 120,
            77 => 90,
            150 => 60,
            _ => (i % 4) as u64,
        };
    }
    let total: u64 = counts.iter().sum();
    let budget = (total / theta + 1) as usize;
    let mut ss = SpaceSaving::new(budget);
    for &l in &leaves {
        let c = counts[l.index()];
        if c > 0 {
            ss.add(l.index() as u64, c);
        }
    }
    for &l in &leaves {
        if counts[l.index()] >= theta {
            assert!(
                ss.top(budget).iter().any(|e| e.key == l.index() as u64),
                "heavy leaf {} must be monitored",
                tree.path_of(l)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Space-Saving estimates dominate true counts and the summary never
    /// exceeds its budget.
    #[test]
    fn space_saving_invariants(pairs in prop::collection::vec((0u64..100, 1u64..10), 1..300), cap in 1usize..32) {
        let mut ss = SpaceSaving::new(cap);
        let mut truth = std::collections::HashMap::new();
        for &(k, c) in &pairs {
            ss.add(k, c);
            *truth.entry(k).or_insert(0u64) += c;
            prop_assert!(ss.len() <= cap);
        }
        for e in ss.top(cap) {
            let t = truth.get(&e.key).copied().unwrap_or(0);
            prop_assert!(e.count >= t, "estimate below truth");
            prop_assert!(e.lower_bound() <= t, "lower bound above truth");
        }
        prop_assert_eq!(ss.total(), pairs.iter().map(|&(_, c)| c).sum::<u64>());
    }
}
