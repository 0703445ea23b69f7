//! Pass runners shared by the determinism suites. Every compared pass
//! runs in a scope of its own: a fresh `mmog_obs::Registry` and its own
//! jobs value, so passes can run side by side — inside one test and
//! across the parallel test harness — without sharing a counter or a
//! jobs setting.

use mmog_obs::{snapshot_metrics, Registry};

/// Runs `f` in a fresh scope at `jobs` and checks, from the scope's own
/// timing counters, that the pass fanned out exactly when `jobs > 1`:
/// a `--jobs 4` pass that silently ran serially would otherwise compare
/// serial against serial and pass vacuously.
pub fn pass<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    let (out, metrics) = mmog_par::scoped(jobs, &Registry::new(), || (f(), snapshot_metrics()));
    let fan_outs: u64 = metrics
        .counters
        .iter()
        .filter(|(name, _, _)| name == "par.map.regions")
        .map(|(_, _, n)| n)
        .sum();
    assert_eq!(
        fan_outs > 0,
        jobs > 1,
        "a --jobs {jobs} pass recorded {fan_outs} parallel regions"
    );
    out
}

/// Runs one [`pass`] of `f` per entry of `jobs`, all at once on their
/// own threads, and returns the results in `jobs` order.
pub fn passes<R: Send, const N: usize>(jobs: [usize; N], f: impl Fn() -> R + Sync) -> [R; N] {
    let f = &f;
    std::thread::scope(|s| {
        jobs.map(|j| s.spawn(move || pass(j, f)))
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
    })
}
