//! Order statistics the benchmark reports. The benchmark owns these
//! definitions so that no change to the program can move them.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it. `None`
/// for an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps exact ranks (p75 of 40 samples is rank 30) from
    // being bumped a slot by binary-fraction noise in `p / 100`.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil();
    let idx = (rank.max(1.0) as usize).min(sorted.len()) - 1;
    Some(sorted[idx])
}

/// Sorts `values` ascending (total order, so NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of unsorted `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    nearest_rank(&sorted(values), p).unwrap_or(0.0)
}

/// Nearest-rank median of unsorted `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The smallest of `values`; 0 for an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    sorted(values).first().copied().unwrap_or(0.0)
}

/// Element-wise minimum over repetitions: entry `i` is the smallest
/// `rows[r][i]` over the rows that have one. The repetitions do identical
/// work, so the fastest of them is the one least disturbed by other load
/// on the machine.
pub fn fastest_each(rows: &[&[f64]]) -> Vec<f64> {
    let n = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            let at_i: Vec<f64> = rows.iter().filter_map(|r| r.get(i).copied()).collect();
            fastest(&at_i)
        })
        .collect()
}

/// The samples `(time, value)` whose time falls in `[start, end)` of each
/// window, one group per window (possibly empty).
pub fn by_window(samples: &[(u64, f64)], windows: &[(u64, u64)]) -> Vec<Vec<f64>> {
    windows
        .iter()
        .map(|&(start, end)| {
            samples
                .iter()
                .filter(|(t, _)| (start..end).contains(t))
                .map(|&(_, v)| v)
                .collect()
        })
        .collect()
}

/// The median over non-empty windows of each window's nearest-rank `p`
/// percentile: a percentile that a burst of outside load during a few
/// windows cannot move. 0 when every window is empty.
pub fn windowed_percentile(samples: &[(u64, f64)], windows: &[(u64, u64)], p: f64) -> f64 {
    let per_window: Vec<f64> = by_window(samples, windows)
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, p))
        .collect();
    median(&per_window)
}

/// `n` equal windows covering `[start, end)`.
pub fn split_windows(start: u64, end: u64, n: usize) -> Vec<(u64, u64)> {
    let n = n.max(1) as u64;
    let len = end.saturating_sub(start);
    (0..n)
        .map(|i| (start + len * i / n, start + len * (i + 1) / n))
        .collect()
}

/// Sum of the last `k` values over the sum of the first `k`, with
/// `k = min(5, n / 2)`: how much a per-day quantity grew over a replay.
/// 0 when there are fewer than two values or the first sum is 0.
pub fn late_ratio(values: &[f64]) -> f64 {
    let k = (values.len() / 2).min(5);
    if k == 0 {
        return 0.0;
    }
    let first: f64 = values[..k].iter().sum();
    let last: f64 = values[values.len() - k..].iter().sum();
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}
