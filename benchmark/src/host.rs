//! Host-noise guard: a frozen calibration kernel timed before and after each
//! workload, plus the machine's steal share over the same interval. A
//! workload whose two calibrations disagree is reported as `disturbed` —
//! the numbers are still printed, never dropped.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::sys::host_jiffies;

/// Calibrations further apart than this mark the workload `disturbed`.
pub const DISTURBED_REL: f64 = 0.10;

/// The frozen kernel: a three-deep integer loop nest with a divisibility
/// test, the shape of the product's inner loops. Never change it — its time
/// is only comparable across commits while its work is identical.
fn kernel() -> u64 {
    let mut acc = 0u64;
    for i in 1..black_box(300u64) {
        for j in 1..300u64 {
            for k in 1..300u64 {
                let v = i.wrapping_mul(j) ^ k.wrapping_mul(0x9E37_79B9);
                if v % 7 != 0 {
                    acc = acc.wrapping_add(v >> 3);
                }
            }
        }
    }
    acc
}

/// Median wall time of five kernel runs, seconds.
pub fn calibrate() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Host state bracketing one workload.
pub struct HostGuard {
    calib_before: f64,
    jiffies_before: (u64, u64),
}

/// What the host did while a workload ran.
pub struct HostReport {
    /// Mean of the two calibrations, seconds.
    pub calib_s: f64,
    /// Steal jiffies ÷ all jiffies between the two calibrations.
    pub steal_share: f64,
    /// The calibrations differ by more than [`DISTURBED_REL`].
    pub disturbed: bool,
}

impl HostGuard {
    pub fn begin() -> HostGuard {
        HostGuard {
            calib_before: calibrate(),
            jiffies_before: host_jiffies(),
        }
    }

    pub fn end(self) -> HostReport {
        let (steal, total) = host_jiffies();
        let calib_after = calibrate();
        let d_total = total.saturating_sub(self.jiffies_before.1);
        let d_steal = steal.saturating_sub(self.jiffies_before.0);
        let (lo, hi) = if self.calib_before < calib_after {
            (self.calib_before, calib_after)
        } else {
            (calib_after, self.calib_before)
        };
        HostReport {
            calib_s: (lo + hi) / 2.0,
            steal_share: if d_total == 0 {
                0.0
            } else {
                d_steal as f64 / d_total as f64
            },
            disturbed: hi > lo * (1.0 + DISTURBED_REL),
        }
    }
}
