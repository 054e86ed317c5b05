//! Host-speed reference: the benchmark's own fixed kernel, timed between
//! stretches of the program's work, so host time can be reported at a
//! reference host speed.
//!
//! The benchmark runs on a 2-vCPU virtual machine whose speed swings by a
//! factor of 1.5 to 2 in spells of seconds to minutes while other guests
//! load the machine's caches and memory (hypervisor steal stays near 0, so
//! the time is lost inside the guest's own CPU time). The kernel has two
//! halves of about equal time: a sparse gather-accumulate over a 16 MiB
//! dense matrix (the access pattern of GCN aggregation) and random lookups
//! in a hash map of a million entries (the simulator's bookkeeping). Over
//! eight minutes of repeating one CS HyMM simulation, the simulation time of
//! 30 s windows spread by 0.17 (quartile distance over median); divided by
//! the time of this kernel, sampled between the simulations, by 0.03. The
//! gather alone gave 0.05 (0.08 over an earlier ten minutes), the lookups
//! alone 0.03, a pointer chase over 8 MiB 0.09 and a streaming sum 0.11.
//!
//! The kernel is part of the benchmark, not of the program, so a change to
//! the program does not change the reference it is measured against.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Rows of the dense operand (16 f32 each: 16 MiB).
const DENSE_ROWS: usize = 1 << 18;
/// Feature width of the dense operand.
const WIDTH: usize = 16;
/// Gathers per output row.
const NNZ_PER_ROW: usize = 8;
/// Output rows per sample: 2^15 rows x 8 gathers, about 15 ms here.
const ROWS_PER_SAMPLE: usize = 1 << 15;
/// Entries of the hash map.
const MAP_ENTRIES: u64 = 1 << 20;
/// Lookups per sample, about 20 ms here.
const LOOKUPS_PER_SAMPLE: usize = 150_000;

/// Milliseconds one sample takes at the reference speed: the kernel's usual
/// time on the host the benchmark was written on. Host time is reported as
/// `raw * REFERENCE_MS / sample`, which reads as the time the host would
/// have taken at that speed.
pub const REFERENCE_MS: f64 = 35.0;

/// Samples on each side of a stretch that its factor also averages. One
/// sample is noisy next to a stretch of a few hundred milliseconds (the
/// suite's middle simulations), while the host's spells last seconds. With
/// the two bracketing samples alone, the suite's `p50_ms` spread by 0.08
/// and 0.13 over two sets of ten runs; with two more on each side, by 0.07.
const SMOOTHING: usize = 2;

/// Host seconds of one stretch of work and the samples taken around it.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    /// Host seconds.
    pub raw_s: f64,
    /// The sample before the work.
    from: usize,
    /// The sample after it.
    to: usize,
}

/// The reference kernel and the samples taken of it.
pub struct HostSpeed {
    /// Off in traced runs: no samples, factor 1.
    enabled: bool,
    cols: Vec<u32>,
    dense: Vec<f32>,
    map: HashMap<u64, u64>,
    out: Vec<f32>,
    /// Milliseconds of every sample, in order.
    samples: Vec<f64>,
    /// Resident megabytes the buffers added.
    footprint_mb: f64,
}

impl HostSpeed {
    /// Builds the kernel's inputs (fixed, independent of the workload seed)
    /// and takes a first sample. A disabled reference runs nothing.
    pub fn new(enabled: bool) -> HostSpeed {
        let mut speed = HostSpeed {
            enabled,
            cols: Vec::new(),
            dense: Vec::new(),
            map: HashMap::new(),
            out: Vec::new(),
            samples: Vec::new(),
            footprint_mb: 0.0,
        };
        if enabled {
            let before = crate::status_mb("VmRSS");
            let mut rng = crate::Xorshift::new(0x5eed);
            speed.cols = (0..ROWS_PER_SAMPLE * NNZ_PER_ROW)
                .map(|_| rng.below(DENSE_ROWS) as u32)
                .collect();
            speed.dense = (0..DENSE_ROWS * WIDTH)
                .map(|i| (i % 97) as f32 * 0.01)
                .collect();
            speed.map = (0..MAP_ENTRIES).map(|k| (spread_key(k), k)).collect();
            speed.out = vec![0.0; ROWS_PER_SAMPLE * WIDTH];
            // Warm-up: fault the pages in before the first timed sample.
            speed.sample();
            speed.samples.clear();
            speed.sample();
            speed.footprint_mb = (crate::status_mb("VmRSS") - before).max(0.0);
        }
        speed
    }

    /// Times one run of the kernel and records it.
    pub fn sample(&mut self) {
        if !self.enabled {
            return;
        }
        let t = Instant::now();
        let dense = black_box(&self.dense);
        for (row, out) in self.out.chunks_exact_mut(WIDTH).enumerate() {
            out.fill(0.0);
            for &c in &self.cols[row * NNZ_PER_ROW..(row + 1) * NNZ_PER_ROW] {
                let src = &dense[c as usize * WIDTH..(c as usize + 1) * WIDTH];
                for (o, s) in out.iter_mut().zip(src) {
                    *o += s;
                }
            }
        }
        black_box(&self.out);
        let mut rng = crate::Xorshift::new(0x100c);
        let mut found = 0u64;
        for _ in 0..LOOKUPS_PER_SAMPLE {
            let key = spread_key(rng.below(MAP_ENTRIES as usize) as u64);
            found = found.wrapping_add(black_box(&self.map).get(&key).copied().unwrap_or(0));
        }
        black_box(found);
        self.samples.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Index of the latest sample; stretches of work are bracketed by two.
    pub fn mark(&self) -> usize {
        self.samples.len().saturating_sub(1)
    }

    /// Samples the kernel after `raw_s` host seconds of work that began
    /// after sample `from`.
    pub fn end(&mut self, from: usize, raw_s: f64) -> Stretch {
        self.sample();
        Stretch {
            raw_s,
            from,
            to: self.mark(),
        }
    }

    /// Runs `work`, then samples the kernel; returns the result with the
    /// stretch it took.
    pub fn measure<T>(&mut self, work: impl FnOnce() -> T) -> (T, Stretch) {
        let from = self.mark();
        let t = Instant::now();
        let out = work();
        let stretch = self.end(from, t.elapsed().as_secs_f64());
        (out, stretch)
    }

    /// Factor from host time to reference time for `stretch`: the reference
    /// over the mean of the samples around it, [`SMOOTHING`] more on each
    /// side; 1 when the reference is off. Read it once the run has taken
    /// the samples after the stretch.
    pub fn factor(&self, stretch: &Stretch) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        let from = stretch.from.saturating_sub(SMOOTHING);
        let to = (stretch.to + SMOOTHING).min(self.mark());
        let window = &self.samples[from..=to];
        REFERENCE_MS * window.len() as f64 / window.iter().sum::<f64>()
    }

    /// `stretch`'s host seconds at the reference speed.
    pub fn seconds(&self, stretch: &Stretch) -> f64 {
        stretch.raw_s * self.factor(stretch)
    }

    /// Median sample in milliseconds (0 when the reference is off), printed
    /// with every run so a slow host shows in the log.
    pub fn median_ms(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.samples)
        }
    }

    /// Resident megabytes of the reference's buffers, measured when they
    /// were built (0 when the reference is off).
    pub fn footprint_mb(&self) -> f64 {
        self.footprint_mb
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// Scatters consecutive map keys over the whole key space.
fn spread_key(k: u64) -> u64 {
    k.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reference_is_the_identity() {
        let mut speed = HostSpeed::new(false);
        let (value, stretch) = speed.measure(|| 7);
        assert_eq!(value, 7);
        assert_eq!(speed.seconds(&stretch), stretch.raw_s);
        assert_eq!(speed.samples(), 0);
        assert_eq!(speed.median_ms(), 0.0);
    }

    #[test]
    fn factor_is_reference_over_the_mean_of_the_window() {
        let mut speed = HostSpeed::new(false);
        speed.enabled = true;
        let r = REFERENCE_MS;
        // Samples 0..=6; the stretch lies between samples 3 and 4.
        speed.samples = vec![9.0 * r, r, 3.0 * r, 2.0 * r, 2.0 * r, 3.0 * r, r];
        let stretch = Stretch {
            raw_s: 1.0,
            from: 3,
            to: 4,
        };
        // Window 1..=6 with two more samples on each side: mean 2r, so the
        // host ran at half the reference speed.
        assert!((speed.factor(&stretch) - 0.5).abs() < 1e-12);
        assert!((speed.seconds(&stretch) - 0.5).abs() < 1e-12);
        // At the ends the window is cut: 0..=2 has mean 13r / 3.
        let first = Stretch {
            raw_s: 1.0,
            from: 0,
            to: 0,
        };
        assert!((speed.factor(&first) - 3.0 / 13.0).abs() < 1e-12);
    }
}
