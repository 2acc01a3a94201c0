//! Criterion micro-benchmarks of the algorithmic substrates: SHHH
//! computation, ADA vs STA per-instance cost, split-ratio derivation,
//! Holt-Winters updates, FFT, wavelet decomposition and multi-scale
//! series updates.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use tiresias_bench::scenarios::ccd_trouble_workload;
use tiresias_hhh::{
    aggregate_weights, compute_shhh, Ada, HhhConfig, ModelSpec, SplitRule, SplitStats, Sta,
};
use tiresias_spectral::{fft, AtrousTransform, Complex};
use tiresias_timeseries::{Forecaster, HoltWinters, MultiScaleSeries};

fn bench_shhh(c: &mut Criterion) {
    let workload = ccd_trouble_workload(1.0, 300.0, 1);
    let tree = workload.tree();
    let unit = workload.generate_unit(64);
    c.bench_function("shhh_computation", |b| {
        b.iter(|| compute_shhh(black_box(tree), black_box(&unit), 10.0))
    });
    c.bench_function("aggregate_weights", |b| {
        b.iter(|| aggregate_weights(black_box(tree), black_box(&unit)))
    });
}

fn bench_ada_vs_sta(c: &mut Criterion) {
    let workload = ccd_trouble_workload(1.0, 300.0, 2);
    let tree = workload.tree();
    let model = ModelSpec::HoltWinters { alpha: 0.5, beta: 0.05, gamma: 0.3, season: 96 };
    let config = HhhConfig::new(10.0, 192).with_model(model);
    let history = workload.generate_units(0, 96);
    let units: Vec<Vec<f64>> = workload.generate_units(96, 32);

    let mut group = c.benchmark_group("instance_update");
    group.sample_size(10);
    group.bench_function("ada", |b| {
        b.iter_batched(
            || Ada::with_history(config.clone(), tree, &history).expect("valid"),
            |mut ada| {
                for u in &units {
                    ada.push_timeunit(tree, u);
                }
                ada
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("sta", |b| {
        b.iter_batched(
            || {
                let mut sta = Sta::new(config.clone()).expect("valid");
                for u in &history {
                    sta.push_timeunit(tree, u);
                }
                sta
            },
            |mut sta| {
                for u in &units {
                    sta.push_timeunit(tree, u);
                }
                sta
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_split_rules(c: &mut Criterion) {
    let workload = ccd_trouble_workload(1.0, 300.0, 3);
    let tree = workload.tree();
    let mut stats = SplitStats::with_len(tree.len());
    for u in 0..8 {
        let agg = aggregate_weights(tree, &workload.generate_unit(u));
        stats.record_unit(&agg, Some(0.4));
    }
    let children = tree.children(tree.root()).to_vec();
    let mut group = c.benchmark_group("split_ratios");
    for rule in [
        SplitRule::Uniform,
        SplitRule::LastTimeUnit,
        SplitRule::LongTermHistory,
        SplitRule::Ewma { alpha: 0.4 },
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(rule), &rule, |b, &rule| {
            b.iter(|| stats.ratios(rule, black_box(&children)))
        });
    }
    group.finish();
}

fn bench_holt_winters(c: &mut Criterion) {
    let hist: Vec<f64> = (0..192).map(|t| 50.0 + 20.0 * ((t % 96) as f64 / 96.0).sin()).collect();
    c.bench_function("holt_winters_update", |b| {
        let mut hw = HoltWinters::from_history(0.5, 0.05, 0.3, 96, &hist).expect("valid");
        b.iter(|| {
            hw.observe(black_box(55.0));
            hw.forecast()
        })
    });
}

fn bench_fft_wavelet(c: &mut Criterion) {
    let signal: Vec<Complex> = (0..4096)
        .map(|t| Complex::from_real((t as f64 / 96.0 * std::f64::consts::TAU).sin()))
        .collect();
    c.bench_function("fft_4096", |b| b.iter(|| fft(black_box(&signal))));
    let real: Vec<f64> = signal.iter().map(|z| z.re).collect();
    c.bench_function("wavelet_atrous_4096x8", |b| {
        let t = AtrousTransform::new(8);
        b.iter(|| t.decompose(black_box(&real)))
    });
}

fn bench_multiscale(c: &mut Criterion) {
    c.bench_function("multiscale_update", |b| {
        let mut ms = MultiScaleSeries::new(4, 3, 672, 0.5).expect("valid");
        let mut x = 0.0f64;
        b.iter(|| {
            x += 1.0;
            ms.update(black_box(x % 17.0));
        })
    });
}

criterion_group!(
    benches,
    bench_shhh,
    bench_ada_vs_sta,
    bench_split_rules,
    bench_holt_winters,
    bench_fft_wavelet,
    bench_multiscale
);
criterion_main!(benches);
