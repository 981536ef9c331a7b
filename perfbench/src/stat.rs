//! Order statistics over a run's samples.

/// The `q`-quantile of ascending `xs`, interpolating between ranks.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// A timing as it is reported: the lower decile, the median, and the
/// highest percentile that has at least ten samples beyond it.
pub struct Summary {
    pub n: usize,
    pub p10: f64,
    pub median: f64,
    /// `(percentile, value)`; `None` with ten samples or fewer.
    pub tail: Option<(usize, f64)>,
}

pub fn summary(samples: &[f64]) -> Summary {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let tail = (n > 10).then(|| {
        let k = n - 10;
        (100 * k / n, xs[k - 1])
    });
    Summary {
        n,
        p10: quantile(&xs, 0.1),
        median: quantile(&xs, 0.5),
        tail,
    }
}

impl Summary {
    pub fn describe(&self) -> String {
        let mut d = format!(
            "of {}: p10 {:.4}, median {:.4}",
            self.n, self.p10, self.median
        );
        if let Some((p, v)) = self.tail {
            d += &format!(", p{p} {v:.4}");
        }
        d
    }
}

/// The smallest of `xs`; infinite when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A phase's run times, one series per program of the set.
///
/// A shared host's speed switches between a fast and a slow state as
/// its neighbours' load comes and goes: on a 2-vCPU Xeon VM, about
/// 1.8× apart, many times a second and in spells of up to ten seconds.
/// A median over passes estimates the mix of the two states, which
/// moves by a third from run to run. The time of a deterministic
/// program only ever gains from the host's noise, so each program's
/// fastest run estimates its cost and moves by about a tenth;
/// [`fastest_pass`] sums them. Each sample is one program, not a whole
/// pass, so that more samples fall inside a fast spell.
///
/// [`fastest_pass`]: PerProgram::fastest_pass
#[derive(Default)]
pub struct PerProgram(Vec<Vec<f64>>);

impl PerProgram {
    /// Adds one pass: the time of each program, in set order.
    pub fn push(&mut self, times: &[f64]) {
        if self.0.is_empty() {
            self.0 = vec![Vec::new(); times.len()];
        }
        for (series, t) in self.0.iter_mut().zip(times) {
            series.push(*t);
        }
    }

    /// The sum over programs of each one's fastest run.
    pub fn fastest_pass(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().map(|s| min(s)).sum()
    }
}
