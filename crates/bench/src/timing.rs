//! Wall-clock helpers shared by the custom-harness benches (`e5`–`e13`).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall-clock time of `f` over `reps` runs — minimum, not mean,
/// because scheduling noise only ever adds time.
pub fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// `d` in nanoseconds, as the `ns_per_op` field of the bench artifacts.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// `d` in seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}
