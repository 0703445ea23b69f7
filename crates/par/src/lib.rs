//! Deterministic fork-join parallelism for the `mmog-dc` workspace.
//!
//! The hermetic build environment has no crates.io access, so `rayon`
//! is unavailable; this crate provides the narrow slice of it the
//! simulator needs, built on `std::thread` only:
//!
//! [`par_map`] — an order-preserving parallel map over a slice. The
//! output vector is always in input order, so reductions over it are
//! bit-identical to the serial fold regardless of thread scheduling.
//! It fans out coarse work: experiments, sweep points, scale-ladder
//! worlds and the per-group offline training of one simulation. One
//! simulation's tick runs serially on its calling thread.
//!
//! # Determinism contract
//!
//! [`par_map`] guarantees: (1) each index is processed exactly once;
//! (2) results land in input order; (3) with `jobs() == 1` the code path
//! is the plain serial loop, bit-for-bit. Callers keep the contract by
//! making per-index work self-contained — any randomness must come from
//! a per-index seeded stream, never from a generator shared across
//! indices.
//!
//! # Scopes
//!
//! [`scoped`] fixes the jobs value and the `mmog_obs` registry for one
//! thread and every worker it fans out to; code outside any scope uses
//! the process defaults (see [`set_jobs`] and `mmog_obs::Registry`).
//!
//! # Nesting
//!
//! Parallel regions do not nest: a [`par_map`] called from inside a
//! worker runs serially on that worker. This bounds the process to one
//! level of fan-out (at most `jobs()` threads busy at a time) no matter
//! how the sweep, experiment and training layers stack.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mmog_obs::{counter, gauge, Domain, Registry};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The process-default worker count; 0 means "not set, use the
/// default".
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while the current thread executes inside a parallel region.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// The jobs value of the innermost [`scoped`] call on this thread
    /// (0 outside any scope).
    static SCOPED_JOBS: Cell<usize> = const { Cell::new(0) };
}

/// The number of logical CPUs the process may use.
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Sets the process-default worker count, which every thread outside a
/// [`scoped`] call uses. `0` restores the default (the `MMOG_JOBS`
/// environment variable if set, else all logical CPUs). `1` disables
/// parallelism entirely — every entry point degenerates to the serial
/// loop.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count for new parallel regions: the innermost
/// [`scoped`] value on this thread, else the process default.
#[must_use]
pub fn jobs() -> usize {
    match (SCOPED_JOBS.with(Cell::get), JOBS.load(Ordering::Relaxed)) {
        (0, 0) => std::env::var("MMOG_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(available_jobs),
        (0, n) | (n, _) => n,
    }
}

/// Runs `f` with `jobs` as this thread's worker count and `registry` as
/// its observability registry (`jobs == 0` keeps the process default).
/// [`jobs`], every `mmog_obs` recording and snapshot function, and the
/// [`par_map`] workers `f` fans out to all resolve to these
/// values, so everything `f` records lands in `registry` alone. Scopes
/// nest; the previous values return when `f` does (or panics). Tests
/// isolate themselves this way, with production code unmodified.
pub fn scoped<R>(jobs: usize, registry: &Registry, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_JOBS.with(|j| j.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_JOBS.with(|j| j.replace(jobs)));
    registry.scope(f)
}

/// Whether the current thread is already inside a parallel region (new
/// regions started here run serially).
fn in_parallel() -> bool {
    IN_PARALLEL.with(Cell::get)
}

/// Marks the current thread as inside a parallel region for the scope
/// of `f`.
fn enter_parallel<R>(f: impl FnOnce() -> R) -> R {
    IN_PARALLEL.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Order-preserving parallel map: `out[i] == f(&items[i])` for every
/// `i`, with the closure fanned across up to [`jobs`] threads. Falls
/// back to the serial loop when `jobs() <= 1`, when the slice has fewer
/// than two elements, or when called from inside another parallel
/// region.
///
/// # Panics
/// Propagates the first panic raised by `f`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs().min(n);
    if workers <= 1 || in_parallel() {
        return items.iter().map(f).collect();
    }
    // Fan-out volume depends on `--jobs`: timing-domain instruments.
    counter("par.map.regions", Domain::Timing).incr();
    gauge("par.map.workers_max", Domain::Timing).set_max(workers as i64);
    // The caller's scope, for the workers to re-enter.
    let (scope_jobs, registry) = (SCOPED_JOBS.with(Cell::get), Registry::current());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    scoped(scope_jobs, &registry, || {
                        enter_parallel(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                local.push((i, f(&items[i])));
                            }
                            local
                        })
                    })
                })
            })
            .collect();
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for h in handles {
            for (i, r) in h.join().expect("parallel map worker panicked") {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index is claimed exactly once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_for_any_jobs() {
        let items: Vec<u64> = (0..200).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for j in [1, 2, 3, 8] {
            let out = scoped(j, &Registry::new(), || {
                par_map(&items, |&x| x.wrapping_mul(x))
            });
            assert_eq!(out, serial, "jobs={j}");
        }
    }

    #[test]
    fn nested_regions_run_serially() {
        let outer: Vec<usize> = (0..4).collect();
        let out = scoped(4, &Registry::new(), || {
            par_map(&outer, |&i| {
                assert!(in_parallel());
                let inner: Vec<usize> = (0..10).collect();
                // Nested call must not spawn; it still returns in order.
                par_map(&inner, |&j| i * 100 + j)
            })
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner.len(), 10);
            assert_eq!(inner[3], i * 100 + 3);
        }
    }

    #[test]
    fn workers_run_in_the_dispatching_scope() {
        use mmog_obs::{counter, Domain};
        let registry = Registry::new();
        scoped(4, &registry, || {
            let items: Vec<u64> = (0..64).collect();
            par_map(&items, |&x| {
                assert_eq!(jobs(), 4, "workers see the scope's jobs value");
                counter("test.par.mapped", Domain::Timing).add(x);
            });
        });
        let counters = registry.scope(mmog_obs::snapshot_metrics).counters;
        let value = |name| {
            counters
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(value("test.par.mapped"), Some((0..64).sum::<u64>()));
        assert_eq!(value("par.map.regions"), Some(1));
        // Outside any scope, snapshots read the process default.
        let leaked = mmog_obs::snapshot_metrics()
            .counters
            .into_iter()
            .any(|(name, _, _)| name.starts_with("test.par."));
        assert!(!leaked, "nothing reaches the process default");
    }

    #[test]
    fn jobs_setting_round_trips() {
        // The only test here that touches the process default.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        scoped(5, &Registry::new(), || {
            assert_eq!(jobs(), 5);
            scoped(0, &Registry::new(), || {
                assert_eq!(jobs(), 3, "0 keeps the default")
            });
        });
        assert_eq!(jobs(), 3, "the scope's value ends with it");
        set_jobs(0);
        assert!(jobs() >= 1);
    }
}
