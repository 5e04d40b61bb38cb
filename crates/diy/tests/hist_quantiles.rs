//! Quantile-accuracy contract for `LogHistogram`: on realistic sample
//! shapes, p50/p99 must land within one log2 bucket of the exact sorted
//! quantile, and merging histograms must commute with quantile-taking
//! bucket-wise. The telemetry rolling-window summaries rely on these
//! bounds, and the last test holds a `WindowedHistogram` to them while its
//! window fills and after it rotates.

use diy::hist::LogHistogram;
use diy::telemetry::WindowedHistogram;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Box–Muller log-normal sampler: `exp(mu + sigma * z)`, z ~ N(0,1).
fn log_normal(rng: &mut ChaCha8Rng, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mu + sigma * z).exp()
}

/// The log2 bucket a positive value falls in (bucket e covers
/// [2^e, 2^(e+1)), matching the histogram's binning).
fn bucket_of(v: f64) -> i32 {
    v.log2().floor() as i32
}

/// Exact quantile by sorting (nearest-rank on the scaled index).
fn exact_quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[((v.len() - 1) as f64 * q) as usize]
}

fn assert_within_one_bucket(samples: &[f64], what: &str) {
    let mut h = LogHistogram::new();
    for &s in samples {
        h.observe(s);
    }
    for q in [0.5, 0.99] {
        let approx = h.quantile(q);
        let exact = exact_quantile(samples, q);
        let err = (bucket_of(approx) - bucket_of(exact)).abs();
        assert!(
            err <= 1,
            "{what}: q{q} approx {approx} is {err} log2 buckets from exact {exact}"
        );
    }
}

#[test]
fn uniform_samples_within_one_bucket() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let samples: Vec<f64> = (0..20_000).map(|_| rng.gen_range(1.0..1e6)).collect();
    assert_within_one_bucket(&samples, "uniform[1,1e6)");
    let narrow: Vec<f64> = (0..20_000).map(|_| rng.gen_range(100.0..200.0)).collect();
    assert_within_one_bucket(&narrow, "uniform[100,200)");
}

#[test]
fn log_normal_samples_within_one_bucket() {
    // Latency-shaped: heavy right tail spanning many decades.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let samples: Vec<f64> = (0..20_000)
        .map(|_| log_normal(&mut rng, 8.0, 2.0))
        .collect();
    assert_within_one_bucket(&samples, "log-normal(8,2)");
}

#[test]
fn constant_samples_hit_their_own_bucket() {
    for c in [1.0, 3.5, 1024.0, 1e-6, 7.3e9] {
        let samples = vec![c; 5000];
        assert_within_one_bucket(&samples, "constant");
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.observe(s);
        }
        // Both quantiles return the bucket midpoint of c's own bucket.
        assert_eq!(bucket_of(h.quantile(0.5)), bucket_of(c));
        assert_eq!(bucket_of(h.quantile(0.99)), bucket_of(c));
    }
}

#[test]
fn merge_then_quantile_equals_quantile_of_concatenation() {
    // Three disjoint shards with very different shapes.
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let shards: Vec<Vec<f64>> = vec![
        (0..5000).map(|_| rng.gen_range(1.0..100.0)).collect(),
        (0..3000).map(|_| rng.gen_range(1e4..1e7)).collect(),
        vec![42.0; 2000],
    ];
    let mut merged = LogHistogram::new();
    let mut concat_hist = LogHistogram::new();
    let mut concat: Vec<f64> = Vec::new();
    for shard in &shards {
        let mut h = LogHistogram::new();
        for &s in shard {
            h.observe(s);
            concat_hist.observe(s);
        }
        merged.merge(&h);
        concat.extend_from_slice(shard);
    }
    // Bucket-wise the merge IS the concatenation...
    assert_eq!(merged.n(), concat.len() as u64);
    let buckets = |h: &LogHistogram| h.buckets().collect::<Vec<_>>();
    assert_eq!(buckets(&merged), buckets(&concat_hist));
    // ...so every quantile agrees exactly between the two paths...
    for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        assert_eq!(
            merged.quantile(q),
            concat_hist.quantile(q),
            "merge/concat disagree at q{q}"
        );
    }
    // ...and still tracks the exact sorted quantiles within a bucket.
    assert_within_one_bucket(&concat, "merged shards");
    // Merge order is immaterial.
    let mut reversed = LogHistogram::new();
    for shard in shards.iter().rev() {
        let mut h = LogHistogram::new();
        for &s in shard {
            h.observe(s);
        }
        reversed.merge(&h);
    }
    assert_eq!(buckets(&reversed), buckets(&merged));
    assert_eq!(reversed.quantile(0.99), merged.quantile(0.99));
}

#[test]
fn zeros_and_negatives_do_not_shift_positive_quantiles_up() {
    // Zeros count toward rank mass at the bottom; a median over mostly
    // zeros is 0, and a p99 over mostly positives stays bucket-accurate.
    let mut h = LogHistogram::new();
    for _ in 0..9000 {
        h.observe(0.0);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let positives: Vec<f64> = (0..1000).map(|_| rng.gen_range(512.0..1024.0)).collect();
    for &p in &positives {
        h.observe(p);
    }
    assert_eq!(h.quantile(0.5), 0.0);
    let p999 = h.quantile(0.999);
    let exact = exact_quantile(&positives, 0.99);
    assert!(
        (bucket_of(p999) - bucket_of(exact)).abs() <= 1,
        "tail quantile over zero-heavy stream drifted: {p999} vs {exact}"
    );
}

#[test]
fn windowed_rolling_quantiles_track_the_window() {
    let mut rng = ChaCha8Rng::seed_from_u64(37);
    let check = |hist: &WindowedHistogram, live: &[f64], what: &str| {
        let rolling = hist.rolling();
        for q in [0.5, 0.99] {
            let approx = rolling.quantile(q);
            let exact = exact_quantile(live, q);
            let err = (bucket_of(approx) - bucket_of(exact)).abs();
            assert!(
                err <= 1,
                "{what}: rolling q{q} = {approx} is {err} log2 buckets from exact {exact}"
            );
        }
        assert_eq!(
            rolling.n(),
            live.len() as u64,
            "{what}: window sample count"
        );
    };

    // Filling: four epochs, each five decades of log2 above the last, all
    // still inside the 8-epoch window — the rolling view must see them all.
    let mut hist = WindowedHistogram::new(8);
    let mut live = Vec::new();
    for epoch in 0..4 {
        if epoch > 0 {
            hist.advance();
        }
        let lo = 5.0 * epoch as f64;
        for _ in 0..2000 {
            let v = 2f64.powf(rng.gen_range(lo..lo + 5.0));
            hist.observe(v);
            live.push(v);
        }
    }
    check(&hist, &live, "filling");

    // Rotation: eight epochs of a much faster distribution push every slow
    // sample out of the window; only the cumulative total remembers them.
    live.clear();
    for _ in 0..8 {
        hist.advance();
        for _ in 0..2000 {
            let v = rng.gen_range(8.0..72.0);
            hist.observe(v);
            live.push(v);
        }
    }
    check(&hist, &live, "rotated");
    assert_eq!(hist.total().n(), 12 * 2000);
}
