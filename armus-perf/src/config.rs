//! Run parameters: the workload sizes, the time budget and the seed.

use std::time::Duration;

use armus_workloads::kernels::Scale;
use armus_workloads::util::XorShift;

/// Sizes of the four parts. [`Sizes::paper`] holds the sizes every
/// workload runs; [`Sizes::tiny`] keeps the benchmark's own tests fast.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Problem size of the §6.1 kernels.
    pub kernels_scale: Scale,
    /// Async clients in the crowd.
    pub crowd_clients: u64,
    /// Clients per phaser group.
    pub crowd_group: u64,
    /// `advance_async` rounds per client.
    pub crowd_rounds: u64,
    /// Each mode runs passes until it has measured this long, in seconds,
    /// taking turns with the other modes.
    pub crowd_mode_secs: f64,
    /// Standing blocked tasks under the local detection verifier.
    pub detect_standing: u64,
    /// Phasers the standing tasks are spread over.
    pub detect_phasers: u64,
    /// Open-loop churn rate, block + unblock ops per second.
    pub detect_rate: f64,
    /// Monitor period of the detection verifier.
    pub detect_period: Duration,
    /// Journal window of the detection verifier. The churn outruns it
    /// every period, so every monitor round resyncs.
    pub detect_journal: usize,
    /// Sites sharing one store connection.
    pub dist_sites: u32,
    /// Standing blocked tasks per site.
    pub dist_standing: u64,
    /// Open-loop churn rate per site, ops per second.
    pub dist_rate: f64,
    /// Site checker period (also the span plant gaps are drawn from).
    pub dist_check_period: Duration,
    /// Times each part is set up; the median counts as its set-up time.
    pub setup_reps: usize,
    /// A plant not reported this long after its closing block fails.
    pub plant_deadline: Duration,
}

impl Sizes {
    /// The sizes the benchmark runs.
    pub fn paper() -> Sizes {
        Sizes {
            kernels_scale: Scale::Full,
            crowd_clients: 8192,
            crowd_group: 256,
            crowd_rounds: 8,
            crowd_mode_secs: 4.5,
            detect_standing: 1024,
            detect_phasers: 64,
            detect_rate: 200_000.0,
            detect_period: Duration::from_millis(100),
            detect_journal: armus_core::DEFAULT_JOURNAL_CAPACITY,
            dist_sites: 4,
            dist_standing: 512,
            dist_rate: 2_000.0,
            dist_check_period: Duration::from_millis(200),
            setup_reps: 3,
            plant_deadline: Duration::from_secs(5),
        }
    }

    /// Small sizes for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            kernels_scale: Scale::Quick,
            crowd_clients: 64,
            crowd_group: 16,
            crowd_rounds: 2,
            crowd_mode_secs: 0.01,
            detect_standing: 64,
            detect_phasers: 8,
            detect_rate: 2_000.0,
            detect_period: Duration::from_millis(20),
            detect_journal: 16,
            dist_sites: 2,
            dist_standing: 16,
            dist_rate: 200.0,
            dist_check_period: Duration::from_millis(20),
            setup_reps: 1,
            plant_deadline: Duration::from_secs(1),
        }
    }
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workers of the crowd's executor (at most `nproc`).
    pub executor_workers: usize,
    /// The timed window shared by the time-driven parts, in seconds.
    pub seconds: f64,
    /// Drives every generated input: plant gaps, churn task ids, fresh
    /// phaser ids, kernel mode order.
    pub seed: u64,
    /// Part sizes.
    pub sizes: Sizes,
    /// Injected faults; the benchmark's own tests use them to show that a
    /// wrong output is counted as failed.
    pub faults: Faults,
}

/// Faults the benchmark can inject into its own inputs and outputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Faults {
    /// Perturb the first kernel's checksum in every pass.
    pub corrupt_checksum: bool,
    /// Plant pairs that do not deadlock (the second task impedes nobody).
    pub decoy_plant: bool,
}

/// Host parallelism: the worker threads of each §6.1 kernel, and the most
/// worker threads any part starts.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Share of `--seconds` each time-driven part measures for. The crowd runs
/// whole passes of fixed size and takes what they take.
pub const KERNELS_SHARE: f64 = 0.18;
/// See [`KERNELS_SHARE`].
pub const DETECT_SHARE: f64 = 0.52;
/// See [`KERNELS_SHARE`].
pub const DIST_SHARE: f64 = 0.30;

impl Config {
    /// An independent generator for one part, derived from the seed.
    pub fn rng(&self, part: u64) -> XorShift {
        let mut mix = XorShift::new(self.seed ^ part.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Discard a few outputs so nearby seeds diverge.
        for _ in 0..4 {
            mix.next_u64();
        }
        mix
    }

    /// The window of a time-driven part.
    pub fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Strata of [`Gaps`].
const STRATA: usize = 8;

/// Seeded plant gaps, each uniform over `[0, period)` and stratified: every
/// run of [`STRATA`] gaps puts one gap in each `period / STRATA` slice, in
/// seeded order. A median over a few dozen plants then samples every phase
/// of the period evenly rather than by luck of the draw.
pub struct Gaps {
    period: Duration,
    /// Slices not yet drawn in the current run.
    left: Vec<usize>,
}

impl Gaps {
    pub fn new(period: Duration) -> Gaps {
        Gaps { period, left: Vec::new() }
    }

    /// The next gap.
    pub fn next(&mut self, rng: &mut XorShift) -> Duration {
        if self.left.is_empty() {
            self.left = (0..STRATA).collect();
        }
        let slice = self.left.swap_remove(rng.next_below(self.left.len()));
        self.period.mul_f64((slice as f64 + rng.next_f64()) / STRATA as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_cover_every_slice_of_the_period_once_per_run() {
        let period = Duration::from_millis(80);
        let mut gaps = Gaps::new(period);
        let mut rng = XorShift::new(9);
        for _ in 0..3 {
            let mut slices: Vec<u128> = (0..STRATA)
                .map(|_| gaps.next(&mut rng))
                .inspect(|gap| assert!(*gap < period))
                .map(|gap| gap.as_millis() / 10)
                .collect();
            slices.sort();
            assert_eq!(slices, (0..STRATA as u128).collect::<Vec<_>>());
        }
    }
}
