//! Order statistics over samples.

use std::time::Duration;

/// The `q`-quantile (`0.0..=1.0`) of `xs` by the nearest-rank rule;
/// `NaN` for no samples. Sorts `xs` in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The median of `xs` (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The figure of the quietest quarter of a run's phases: the 25th
/// percentile of per-phase times, or the 75th of per-phase rates.
///
/// On a shared VM, host stalls last hundreds of milliseconds and spoil
/// whole phases; when they cover half a run a median over phases flips,
/// while a change to the program moves every phase, the quiet ones too.
pub fn quiet_time(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.25)
}

/// See [`quiet_time`].
pub fn quiet_rate(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.75)
}

/// Microseconds as `f64`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 5.0);
        assert_eq!(quantile(&mut xs, 0.9), 9.0);
        assert_eq!(quantile(&mut xs, 1.0), 10.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }
}
