//! The measured phase of a run and the resource counters at its ends.

use crate::wire::{Run, Sample, WINDOW};

/// The measured phase: from the end of the warm-up to the window boundary
/// `--seconds` later. Every request sent, reply received and CPU second
/// spent in it counts; the drain and the probes come after it.
///
/// Hypervisor steal is reported (provenance) but not filtered out: on a
/// shared VM it came either in episodes or on every window of a run, and a
/// run measured on a subset of its windows spread more across seeds than
/// one measured on all of them.
pub struct Measured {
    start: f64,
    end: f64,
    /// Resource samples at the phase's start and end.
    pub first: Sample,
    pub last: Sample,
}

impl Measured {
    pub fn new(run: &Run) -> Measured {
        let boundaries = ((run.seconds / WINDOW).round() as usize).min(run.windows.len() - 1);
        Measured {
            start: run.warmup,
            end: run.warmup + boundaries as f64 * WINDOW,
            first: run.windows[0],
            last: run.windows[boundaries],
        }
    }

    /// `t` falls in the measured phase.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }

    /// Wall seconds between the phase's two resource samples.
    pub fn seconds(&self) -> f64 {
        self.last.at - self.first.at
    }

    /// Server utime + stime spent in the phase.
    pub fn server_cpu_s(&self) -> f64 {
        self.last.server_cpu_s - self.first.server_cpu_s
    }

    /// Stolen and total CPU ticks of the machine over the phase.
    pub fn steal_ticks(&self) -> (u64, u64) {
        (
            self.last.steal.0.saturating_sub(self.first.steal.0),
            self.last.steal.1.saturating_sub(self.first.steal.1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_phase_spans_its_seconds_from_the_end_of_the_warm_up() {
        // Window samples from the warm-up's end, 3 s of measured phase,
        // then two more windows of drain and probes.
        let windows: Vec<Sample> = (0..15)
            .map(|i| Sample {
                at: 1.0 + i as f64 * WINDOW,
                server_cpu_s: 0.5 * i as f64,
                steal: (i as u64, 100 * i as u64),
                ..Sample::default()
            })
            .collect();
        let run = Run {
            windows,
            warmup: 1.0,
            seconds: 3.0,
            ..Run::default()
        };
        let m = Measured::new(&run);
        assert!(!m.contains(0.99), "warm-up is not measured");
        assert!(m.contains(1.0) && m.contains(3.99));
        assert!(!m.contains(4.0), "the drain and probes are not measured");
        assert_eq!(m.seconds(), 3.0);
        assert_eq!(m.server_cpu_s(), 6.0);
        assert_eq!(m.steal_ticks(), (12, 1200));
    }
}
