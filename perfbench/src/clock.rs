//! Reference-clock time.
//!
//! The machine's clock rate changes by up to 1.6× within minutes (turbo
//! and host load), and every wall time moves with it. A fixed compute
//! kernel, re-timed between ops, tracks the rate. Each op is reported in
//! reference-clock time: its wall time scaled by `REF_NS` over the
//! kernel's recent time, i.e. the time it would take on a clock at which
//! the kernel takes exactly 1 ms. The kernel is benchmark code, so the
//! reference clock is the same for every version of the program.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference clock.
const REF_NS: f64 = 1e6;
/// How often the kernel is re-timed.
const PERIOD: Duration = Duration::from_millis(250);
/// Steps of the kernel: a 64-wide dense recurrence, L1-resident.
const STEPS: usize = 160;
const WIDTH: usize = 64;

pub struct RefClock {
    /// The latest kernel times in ns; their median sets the current scale.
    recent: [f64; 3],
    taken: usize,
    due: Instant,
    /// Every kernel time of the run.
    samples: Vec<f64>,
}

impl RefClock {
    pub fn new() -> Self {
        let mut clock = RefClock {
            recent: [0.0; 3],
            taken: 0,
            due: Instant::now(),
            samples: Vec::new(),
        };
        for _ in 0..3 {
            clock.sample();
        }
        clock
    }

    fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(black_box(0.1)));
        let ns = t.elapsed().as_nanos() as f64;
        self.recent[self.taken % 3] = ns;
        self.taken += 1;
        self.samples.push(ns);
        self.due = Instant::now() + PERIOD;
    }

    /// Re-times the kernel when it is due; called between ops.
    pub fn tick(&mut self) {
        if Instant::now() >= self.due {
            self.sample();
        }
    }

    /// Reference-clock time per wall time, now.
    pub fn scale(&self) -> f64 {
        REF_NS / median(&self.recent)
    }

    /// A wall time in ns as reference-clock ns.
    pub fn to_ref(&self, wall_ns: u64) -> u64 {
        (wall_ns as f64 * self.scale()) as u64
    }

    /// Reference-clock time per wall time over the whole run.
    pub fn run_scale(&self) -> f64 {
        REF_NS / median(&self.samples)
    }
}

fn kernel(seed: f32) -> f32 {
    let mut w = [0.0f32; WIDTH * WIDTH];
    for (i, x) in w.iter_mut().enumerate() {
        *x = ((i * 7919) % 97) as f32 / 97.0 - 0.5;
    }
    let mut h = [seed; WIDTH];
    for _ in 0..STEPS {
        let mut next = [0.0f32; WIDTH];
        for (r, out) in next.iter_mut().enumerate() {
            let row = &w[r * WIDTH..(r + 1) * WIDTH];
            *out = row.iter().zip(&h).map(|(a, b)| a * b).sum::<f32>().tanh();
        }
        h = black_box(next);
    }
    h.iter().sum()
}
