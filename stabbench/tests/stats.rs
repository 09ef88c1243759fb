//! Order statistics used for every reported latency.

use stabbench::stats::{percentile, rank, summarize, tail_percentile};

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    // Nearest rank never interpolates: 10 samples, p95 is the 10th.
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 95.0), 10.0);
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(rank(7, 50.0), 4);
    assert!(percentile(&[], 50.0).is_nan());
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(10), None);
    // 20 samples: p50 is rank 10, ten beyond it.
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    // 100 samples: p90 is rank 90, ten beyond; p99 has only one.
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
    let s = summarize((1..=1_000).map(f64::from).collect());
    assert_eq!(s.n, 1_000);
    assert_eq!(s.tail, Some((99.0, 990.0)));
}

#[test]
fn failed_operations_rank_as_infinite() {
    let mut v: Vec<f64> = (1..=98).map(f64::from).collect();
    v.push(f64::INFINITY);
    v.push(f64::INFINITY);
    let s = summarize(v);
    assert_eq!(s.n, 100);
    assert_eq!(s.p50, 50.0);
    assert!(s.p99.is_infinite());
    assert!(s.max.is_infinite());
    assert_eq!(
        percentile(&sorted(vec![f64::INFINITY, 1.0, 2.0]), 50.0),
        2.0
    );
}

#[test]
fn no_trimming_outlier_reaches_p99_and_max() {
    // Fifty 100 µs samples and one synthetic 100 ms stall: with 51
    // samples p99 is the 51st, so the stall is p99 and the max.
    let mut v = vec![100.0; 50];
    v.push(100_000.0);
    let s = summarize(v);
    assert_eq!(s.p99, 100_000.0);
    assert_eq!(s.max, 100_000.0);
    assert_eq!(s.p50, 100.0);
    // With 1000 samples, eleven stalls (over 1%) still reach p99.
    let mut v = vec![100.0; 989];
    v.extend([100_000.0; 11]);
    let s = summarize(v);
    assert_eq!(s.p99, 100_000.0);
    assert_eq!(s.max, 100_000.0);
}
