//! Order statistics, the metric rows every report is made of, and the
//! calibration that takes the machine's mood out of a timing.

use std::collections::HashMap;
use std::time::Instant;

/// One named measurement; its unit is fixed by the metric tables in `main`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count read once).
    pub samples: usize,
}

impl Metric {
    /// A value that is not finite (a ratio over nothing) is reported as 0.
    pub fn new(name: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`); 0 when
/// there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort in place and return the median.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    percentile(v, 0.5)
}

/// The reporting rule for a timing: its median, and the highest of p90, p99
/// and p99.9 that still has at least ten samples beyond it (`None` below a
/// hundred samples, where even p90 would rest on fewer).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// A fixed piece of work owned by the benchmark, run before and after every
/// timed operation to tell how fast the machine was at that moment.
///
/// The sandbox this benchmark is measured in shares its cores: the same
/// operation takes 180 ms in one half-minute and 300 ms in the next. The
/// slow-down is common to everything that runs, so an operation's time is
/// reported *at reference speed* — scaled by what this kernel took on the
/// reference box over what it took just before and after the operation.
/// The kernel is shaped like the profiler's hot path (a dispatch loop,
/// read-modify-write of shadow-cell sized records scattered over 48 MB, a
/// hash-map lookup every few steps): what slows profiling down here is mostly
/// a neighbour's traffic to the shared cache and memory, and a kernel that
/// stays in cache does not feel it. No change to the product can make the
/// kernel faster or slower.
pub struct Calibrator {
    cells: Vec<[u64; 12]>,
    index: HashMap<(u32, u32), u32>,
    code: Vec<u8>,
    coords: [i64; 4],
    steps: u64,
}

/// What one kernel step takes on the 2-core reference box when it is quiet.
const REFERENCE_NS_PER_STEP: f64 = 23.5;
const CELLS: usize = 1 << 19;

/// Resident size of the kernel's table, which `peak_rss_mb` leaves out.
pub const CALIBRATOR_MB: f64 = (CELLS * 96) as f64 / (1024.0 * 1024.0);

impl Calibrator {
    /// A kernel of `steps` steps (about `steps × 23.5 ns`).
    pub fn new(steps: u64) -> Self {
        let mut x = 12345u64;
        let code = (0..256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 6) as u8
            })
            .collect();
        Calibrator {
            cells: vec![[0; 12]; CELLS],
            index: HashMap::new(),
            code,
            coords: [0; 4],
            steps,
        }
    }

    /// Run the kernel once; seconds it took.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let (mut acc, mut pc, mut at) = (0u64, 0usize, 0usize);
        for i in 0..self.steps {
            let op = self.code[pc & 255];
            pc += 1;
            match op {
                0 => {
                    self.coords[0] += 1;
                    acc = acc.wrapping_add(i);
                }
                1 => {
                    at = (at + 1) & (CELLS - 1);
                    let c = &mut self.cells[at];
                    acc ^= c[0];
                    *c = [i, acc, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0];
                }
                2 => {
                    at = (at.wrapping_mul(31) + 17) & (CELLS - 1);
                    let c = &mut self.cells[at];
                    acc = acc.wrapping_add(c[1]);
                    c[6..].copy_from_slice(&[i, acc, 5, 6, 7, 8]);
                }
                3 => {
                    let key = ((pc & 63) as u32, (at & 15) as u32);
                    let fresh = self.index.len() as u32;
                    acc = acc.wrapping_add(u64::from(*self.index.entry(key).or_insert(fresh)));
                }
                4 => {
                    self.coords[1] = self.coords[0] ^ (acc as i64 & 7);
                    if self.coords[1] & 1 == 0 {
                        pc += 3;
                    }
                }
                _ => acc = acc.rotate_left(7) ^ self.coords[(i & 3) as usize] as u64,
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }

    /// What [`Calibrator::run`] takes on the quiet reference box.
    pub fn reference_s(&self) -> f64 {
        self.steps as f64 * REFERENCE_NS_PER_STEP / 1e9
    }
}

/// One timed call: its wall time, and that time at reference speed.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub at_reference_s: f64,
}

/// Times calls with a calibration run between each two of them, so every
/// call is bracketed by the run before it and the run after it.
pub struct Bracket {
    cal: Calibrator,
    before: f64,
}

impl Bracket {
    pub fn new(steps: u64) -> Self {
        let mut cal = Calibrator::new(steps);
        // The first run faults the kernel's memory in.
        cal.run();
        let before = cal.run();
        Bracket { cal, before }
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let after = self.cal.run();
        let timed = scale(wall_s, self.before, after, self.cal.reference_s());
        self.before = after;
        (out, timed)
    }
}

/// `wall_s` scaled by the reference time of the kernel over the mean of the
/// two calibration runs that bracket it.
pub fn scale(wall_s: f64, before_s: f64, after_s: f64, reference_s: f64) -> Timed {
    Timed {
        wall_s,
        at_reference_s: wall_s * reference_s / ((before_s + after_s) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn scaling_divides_out_a_common_slow_down() {
        // The machine ran at half speed: calibration took twice its
        // reference, so a 3 s wall is 1.5 s at reference speed.
        let t = scale(3.0, 0.5, 0.5, 0.25);
        assert_eq!((t.wall_s, t.at_reference_s), (3.0, 1.5));
        // Uneven brackets count by their mean.
        assert_eq!(scale(1.0, 0.25, 0.75, 0.25).at_reference_s, 0.5);
        let mut cal = Calibrator::new(10_000);
        assert!(cal.run() > 0.0);
        assert_eq!(cal.reference_s(), 10_000.0 * REFERENCE_NS_PER_STEP / 1e9);
    }
}
