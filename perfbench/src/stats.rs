//! Order statistics with the benchmark's sample-count rule.
//!
//! Percentiles use the nearest-rank definition: the `q`-th percentile
//! of `n` sorted samples is the sample at 1-based rank `ceil(q·n)`. A
//! tail percentile is quoted only when at least [`MIN_BEYOND`] samples
//! lie beyond it — below that it is just the largest few samples.

/// Samples that must lie strictly beyond a quoted tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the number of samples it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile value.
    pub value: f64,
    /// Samples in the series.
    pub samples: usize,
}

/// 1-based nearest rank of the `q` quantile among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q` quantile (`0 < q < 1`) of `samples` by nearest rank, or
/// `None` for an empty series. Sorts `samples` in place.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(Quantile {
        value: samples[rank(q, samples.len()) - 1],
        samples: samples.len(),
    })
}

/// The median (nearest rank).
pub fn median(samples: &mut [f64]) -> Option<Quantile> {
    quantile(samples, 0.5)
}

/// A tail quantile, refused unless at least [`MIN_BEYOND`] samples lie
/// beyond it (so a p99 needs at least 1000 samples).
///
/// # Errors
///
/// Names the sample count and how many samples it would have needed.
pub fn tail(samples: &mut [f64], q: f64) -> Result<Quantile, String> {
    let n = samples.len();
    let beyond = n.saturating_sub(rank(q, n.max(1)));
    if n == 0 || beyond < MIN_BEYOND {
        let needed = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize;
        return Err(format!(
            "p{} refused: {n} samples leave {beyond} beyond it (need {MIN_BEYOND}, i.e. n >= {needed})",
            q * 100.0
        ));
    }
    Ok(quantile(samples, q).expect("non-empty"))
}

/// Geometric mean of strictly positive values.
///
/// # Errors
///
/// Refuses an empty series or a non-positive value.
pub fn geomean(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err("geomean of no values".to_owned());
    }
    if let Some(v) = values.iter().find(|v| v.is_nan() || **v <= 0.0) {
        return Err(format!("geomean of non-positive value {v}"));
    }
    Ok((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}
