//! Robust summary statistics and repeated-run sampling for the bench
//! trajectory.
//!
//! Benchmark numbers from shared CI runners are noisy; a single timed
//! pass is worthless as a regression signal. This module provides the
//! measurement discipline `jns bench` uses:
//!
//! - [`sample_us`] — run a workload `warmup` times unmeasured (to fill
//!   inline caches, lazy tables, and the allocator), then `runs` times
//!   measured, returning per-run wall-clock microseconds.
//! - [`median`] / [`min`] / [`mad`] — order statistics that ignore
//!   outliers: the median is the pinned number, the MAD (median absolute
//!   deviation) is the noise scale.
//! - [`compare`] — a "changed vs baseline" verdict that only calls a
//!   difference real when it exceeds *both* a relative tolerance band
//!   and a multiple of the observed noise, so one descheduled run
//!   cannot fail CI.

use std::time::Instant;

/// How many runs to sample and how many unmeasured warmup passes to
/// discard first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Unmeasured passes before sampling begins (cache/JIT-style warmup;
    /// for the VM this fills inline caches, layouts, and memo tables).
    pub warmup: u32,
    /// Measured passes; each contributes one sample.
    pub runs: u32,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig { warmup: 1, runs: 5 }
    }
}

/// Runs `f` `cfg.warmup` times unmeasured, then `cfg.runs` times
/// measured, returning one wall-clock duration in microseconds per
/// measured run (at least one run is always measured).
pub fn sample_us(cfg: SampleConfig, mut f: impl FnMut()) -> Vec<u64> {
    for _ in 0..cfg.warmup {
        f();
    }
    let runs = cfg.runs.max(1);
    let mut out = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        out.push(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
    out
}

/// The median of `xs` (average of the two middle elements for even
/// lengths, rounding down). Returns 0 for an empty slice.
pub fn median(xs: &[u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        // Midpoint without overflow.
        let a = v[n / 2 - 1];
        let b = v[n / 2];
        a / 2 + b / 2 + (a % 2 + b % 2) / 2
    }
}

/// The smallest sample (0 when empty).
pub fn min(xs: &[u64]) -> u64 {
    xs.iter().copied().min().unwrap_or(0)
}

/// The median absolute deviation from the median: a robust noise scale
/// (unlike the standard deviation, one wild outlier barely moves it).
/// Returns 0 for slices shorter than 2.
pub fn mad(xs: &[u64]) -> u64 {
    if xs.len() < 2 {
        return 0;
    }
    let m = median(xs);
    let devs: Vec<u64> = xs.iter().map(|&x| x.abs_diff(m)).collect();
    median(&devs)
}

/// A benchmark's robust summary: the raw samples plus the three order
/// statistics the trajectory pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Per-run samples, in run order (microseconds by convention).
    pub samples: Vec<u64>,
    /// Median sample — the pinned number.
    pub median: u64,
    /// Smallest sample — the "quiet machine" bound.
    pub min: u64,
    /// Median absolute deviation — the noise scale.
    pub mad: u64,
}

impl Summary {
    /// Computes the summary of `samples`.
    pub fn of(samples: Vec<u64>) -> Summary {
        let (m, mn, md) = (median(&samples), min(&samples), mad(&samples));
        Summary {
            samples,
            median: m,
            min: mn,
            mad: md,
        }
    }
}

/// How big a difference must be before [`compare`] calls it real.
///
/// A change is a regression only when the new median exceeds the old by
/// more than **all** of: `frac` of the old median, `mad_sigmas` times
/// the larger MAD, and `abs_floor_us`. The absolute floor stops
/// microsecond-scale benchmarks from "regressing" by timer jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative band as a fraction of the old median (0.25 = 25%).
    pub frac: f64,
    /// Noise band in MAD multiples (the larger of old/new MAD).
    pub mad_sigmas: f64,
    /// Absolute floor, microseconds.
    pub abs_floor_us: u64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            frac: 0.25,
            mad_sigmas: 4.0,
            abs_floor_us: 50,
        }
    }
}

impl Tolerance {
    /// A tolerance with relative band `frac` and default noise handling.
    pub fn with_frac(frac: f64) -> Self {
        Tolerance {
            frac,
            ..Tolerance::default()
        }
    }

    /// The one-sided band around `old` that [`compare`] treats as
    /// unchanged, given both summaries' noise.
    fn band(&self, old: &Summary, new: &Summary) -> u64 {
        let rel = (old.median as f64 * self.frac.max(0.0)) as u64;
        let noise = (self.mad_sigmas.max(0.0) * old.mad.max(new.mad) as f64) as u64;
        rel.max(noise).max(self.abs_floor_us)
    }
}

/// The outcome of one baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// New median is below the baseline by more than the tolerance band.
    Improved,
    /// Within the tolerance band.
    Unchanged,
    /// New median exceeds the baseline by more than the tolerance band.
    Regressed,
}

impl Verdict {
    /// Stable lower-case label (`"improved"`, `"unchanged"`,
    /// `"regressed"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Compares a new summary against a baseline: lower is better (samples
/// are durations). See [`Tolerance`] for what counts as a real change.
pub fn compare(old: &Summary, new: &Summary, tol: &Tolerance) -> Verdict {
    let band = tol.band(old, new);
    if new.median > old.median.saturating_add(band) {
        Verdict::Regressed
    } else if old.median > new.median.saturating_add(band) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[4, 1, 2, 3]), 2);
        assert_eq!(median(&[u64::MAX, u64::MAX]), u64::MAX);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        // One wild sample barely moves the MAD.
        assert_eq!(mad(&[100, 101, 99, 100, 5000]), 1);
        assert_eq!(mad(&[5]), 0);
    }

    #[test]
    fn sample_us_counts_runs_not_warmup() {
        let mut calls = 0u32;
        let samples = sample_us(SampleConfig { warmup: 2, runs: 3 }, || calls += 1);
        assert_eq!(samples.len(), 3);
        assert_eq!(calls, 5);
    }

    #[test]
    fn compare_flags_only_real_changes() {
        let tol = Tolerance {
            frac: 0.25,
            mad_sigmas: 4.0,
            abs_floor_us: 10,
        };
        let base = Summary::of(vec![1000, 1010, 990, 1000, 1005]);
        // Within 25%: unchanged.
        let wobble = Summary::of(vec![1200, 1210, 1190, 1200, 1205]);
        assert_eq!(compare(&base, &wobble, &tol), Verdict::Unchanged);
        // Far beyond the band: regressed / improved.
        let slow = Summary::of(vec![2000, 2010, 1990, 2000, 2005]);
        assert_eq!(compare(&base, &slow, &tol), Verdict::Regressed);
        assert_eq!(compare(&slow, &base, &tol), Verdict::Improved);
    }

    #[test]
    fn noisy_baselines_widen_the_band() {
        let tol = Tolerance {
            frac: 0.05,
            mad_sigmas: 4.0,
            abs_floor_us: 1,
        };
        // MAD ≈ 300: a +500 shift sits inside 4×MAD even though it is
        // far past the 5% relative band.
        let noisy = Summary::of(vec![700, 1300, 1000, 650, 1350]);
        let shifted = Summary::of(vec![1200, 1800, 1500, 1150, 1850]);
        assert_eq!(compare(&noisy, &shifted, &tol), Verdict::Unchanged);
    }

    #[test]
    fn abs_floor_protects_microbenchmarks() {
        let tol = Tolerance {
            frac: 0.1,
            mad_sigmas: 4.0,
            abs_floor_us: 50,
        };
        // 2µs → 30µs is a 15× "regression" but under the 50µs floor.
        let tiny = Summary::of(vec![2, 2, 3]);
        let jitter = Summary::of(vec![30, 28, 31]);
        assert_eq!(compare(&tiny, &jitter, &tol), Verdict::Unchanged);
    }
}
