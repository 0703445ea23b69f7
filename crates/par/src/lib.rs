//! Deterministic fork-join parallelism for the `mmog-dc` workspace.
//!
//! The hermetic build environment has no crates.io access, so `rayon`
//! is unavailable; this crate provides the narrow slice of it the
//! simulator needs, built on `std::thread` only:
//!
//! - [`par_map`] — an order-preserving parallel map over a slice. The
//!   output vector is always in input order, so reductions over it are
//!   bit-identical to the serial fold regardless of thread scheduling.
//! - [`Pool`] — a persistent worker pool with a generation barrier, for
//!   hot loops (the per-tick engine fan-out) where spawning scoped
//!   threads each iteration would dominate the work itself. Its one
//!   fan-out, [`Pool::for_each_mut2`], hands every index of two paired
//!   slices to exactly one thread through an atomic cursor.
//!
//! # Determinism contract
//!
//! All entry points guarantee: (1) each index is processed exactly once;
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
//! Parallel regions do not nest: work spawned from inside a worker runs
//! serially on that worker. This bounds the process to one level of
//! fan-out (at most `jobs()` threads busy at a time) no matter how the
//! sweep, engine and cache layers stack.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mmog_obs::{counter, gauge, Counter, Domain, Gauge, Registry};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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
/// [`par_map`] and [`Pool`] workers `f` fans out to all resolve to these
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

/// The caller's scope, for the threads that work for it to re-enter.
fn current_scope() -> (usize, Registry) {
    (SCOPED_JOBS.with(Cell::get), Registry::current())
}

/// Whether the current thread is already inside a parallel region (new
/// regions started here run serially).
#[must_use]
pub fn in_parallel() -> bool {
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
    let (scope_jobs, registry) = current_scope();
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

/// Raw-pointer wrapper so a slice base can cross thread boundaries; the
/// atomic cursor guarantees each index is visited by exactly one worker.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// A unit of pool work: a trampoline plus its type-erased context.
#[derive(Clone, Copy)]
struct Job {
    run: unsafe fn(*const ()),
    ctx: *const (),
}

// SAFETY: the context pointer targets a stack frame that provably
// outlives the job (the dispatcher blocks until every worker reports
// completion before returning).
unsafe impl Send for Job {}

struct PoolState {
    epoch: u64,
    job: Option<Job>,
    active: usize,
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// A persistent worker pool with a generation barrier.
///
/// Workers park on a condvar between dispatches, so issuing a fan-out
/// costs two lock round-trips instead of thread spawns — cheap enough
/// to call once (or several times) per simulation tick. The dispatching
/// thread participates in the work itself, so a pool built with
/// `Pool::new(j)` applies `j` threads of compute using `j - 1` parked
/// workers.
///
/// A pool belongs to the scope that builds it: its workers run in the
/// builder's [`scoped`] values, and its dispatch instruments (timing
/// domain, like all fan-out volumes) come from the builder's registry.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    dispatches: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    active: Arc<Gauge>,
}

impl Pool {
    /// Creates a pool applying `jobs` total threads (the caller counts
    /// as one; `jobs <= 1` parks no workers and dispatch degenerates to
    /// the serial loop).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers: Vec<JoinHandle<()>> = (1..jobs.max(1))
            .map(|_| {
                let (shared, (jobs, registry)) = (Arc::clone(&shared), current_scope());
                std::thread::spawn(move || scoped(jobs, &registry, || worker_loop(&shared)))
            })
            .collect();
        counter("par.pool.created", Domain::Timing).incr();
        gauge("par.pool.threads_max", Domain::Timing).set_max(workers.len() as i64 + 1);
        Self {
            shared,
            workers,
            dispatches: counter("par.pool.dispatches", Domain::Timing),
            queue_depth: gauge("par.pool.queue_depth_max", Domain::Timing),
            active: gauge("par.pool.active_workers_max", Domain::Timing),
        }
    }

    /// Total threads applied to each dispatch (workers + caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Disjoint mutable fan-out over two equally long slices:
    /// `f(i, &mut a[i], &mut b[i])` for every index, caller
    /// participating. The struct-of-arrays engine uses this to pair a
    /// group's cold state (provisioner, model) with its hot state
    /// (contiguous per-tick scratch) without interleaving them in one
    /// struct. Serial when the pool has no parked workers.
    ///
    /// # Panics
    /// Panics when the slices differ in length; propagates panics raised
    /// by `f` (the pool stays usable).
    pub fn for_each_mut2<A, B, F>(&self, a: &mut [A], b: &mut [B], f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, &mut A, &mut B) + Sync,
    {
        let n = a.len();
        assert_eq!(n, b.len(), "for_each_mut2 slices must pair up");
        if self.workers.is_empty() || n <= 1 {
            for (i, (ai, bi)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                f(i, ai, bi);
            }
            return;
        }
        self.dispatches.incr();
        self.queue_depth.set_max(n as i64);
        self.active.set_max(self.threads().min(n) as i64);

        struct Ctx<A, B, F> {
            a: SendPtr<A>,
            b: SendPtr<B>,
            len: usize,
            next: AtomicUsize,
            f: F,
        }

        /// Claims indices until the cursor passes the end.
        unsafe fn trampoline<A, B, F: Fn(usize, &mut A, &mut B) + Sync>(p: *const ()) {
            // SAFETY: the dispatcher keeps the Ctx alive until every
            // worker has decremented `active`, which happens only after
            // this function returns.
            let ctx = unsafe { &*(p.cast::<Ctx<A, B, F>>()) };
            loop {
                let i = ctx.next.fetch_add(1, Ordering::Relaxed);
                if i >= ctx.len {
                    break;
                }
                // SAFETY: each index is claimed exactly once, so these
                // are the only live references to a[i] and b[i].
                (ctx.f)(i, unsafe { &mut *ctx.a.0.add(i) }, unsafe {
                    &mut *ctx.b.0.add(i)
                });
            }
        }

        let ctx = Ctx {
            a: SendPtr(a.as_mut_ptr()),
            b: SendPtr(b.as_mut_ptr()),
            len: n,
            next: AtomicUsize::new(0),
            f,
        };
        let job = Job {
            run: trampoline::<A, B, F>,
            ctx: std::ptr::from_ref(&ctx).cast(),
        };
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.workers.len();
            st.panicked = false;
            self.shared.work.notify_all();
        }
        // The caller is one of the compute threads.
        let caller_result = catch_unwind(AssertUnwindSafe(|| {
            enter_parallel(|| unsafe { (job.run)(job.ctx) });
        }));
        // Wait for every worker before ctx leaves scope.
        let panicked = {
            let mut st = self.shared.state.lock().expect("pool lock");
            while st.active > 0 {
                st = self.shared.done.wait(st).expect("pool wait");
            }
            st.job = None;
            st.panicked
        };
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        assert!(!panicked, "pool worker panicked during fan-out");
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch advanced without a job");
                }
                st = shared.work.wait(st).expect("pool wait");
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            enter_parallel(|| unsafe { (job.run)(job.ctx) });
        }));
        let mut st = shared.state.lock().expect("pool lock");
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
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
        let record = |name: &str, n: u64| {
            assert_eq!(jobs(), 4, "workers see the scope's jobs value");
            counter(name, Domain::Timing).add(n);
        };
        scoped(4, &registry, || {
            let items: Vec<u64> = (0..64).collect();
            par_map(&items, |&x| record("test.par.mapped", x));
            let pool = Pool::new(jobs());
            let (mut a, mut b) = (vec![0u8; 64], vec![0u8; 64]);
            pool.for_each_mut2(&mut a, &mut b, |_, _, _| record("test.par.pooled", 1));
        });
        let counters = registry.scope(mmog_obs::snapshot_metrics).counters;
        let value = |name| {
            counters
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(value("test.par.mapped"), Some((0..64).sum::<u64>()));
        assert_eq!(value("test.par.pooled"), Some(64));
        assert_eq!(value("par.map.regions"), Some(1));
        assert_eq!(value("par.pool.created"), Some(1));
        assert_eq!(value("par.pool.dispatches"), Some(1));
        // Outside any scope, snapshots read the process default.
        let leaked = mmog_obs::snapshot_metrics()
            .counters
            .into_iter()
            .any(|(name, _, _)| name.starts_with("test.par."));
        assert!(!leaked, "nothing reaches the process default");
    }

    #[test]
    fn pool_fans_out_and_is_reusable() {
        let pool = Pool::new(4);
        assert_eq!(pool.threads(), 4);
        let mut items = vec![0u64; 1000];
        let mut visits = vec![0u8; 1000];
        for round in 1..=3u64 {
            pool.for_each_mut2(&mut items, &mut visits, |i, v, n| {
                *v += i as u64 * round;
                *n += 1;
            });
        }
        let expected: Vec<u64> = (0..1000).map(|i| i * (1 + 2 + 3)).collect();
        assert_eq!(items, expected);
        assert!(visits.iter().all(|&n| n == 3), "each index once per round");
    }

    #[test]
    fn pool_for_each_mut2_pairs_slices() {
        let pool = Pool::new(4);
        let mut hot = vec![0u64; 777];
        let mut cold: Vec<u64> = (0..777).collect();
        for round in 1..=2u64 {
            pool.for_each_mut2(&mut hot, &mut cold, |i, h, c| {
                *h += *c * round;
                *c += i as u64;
            });
        }
        for (i, h) in hot.iter().enumerate() {
            let i = i as u64;
            // Round 1: h += i; cold becomes 2i. Round 2: h += 2·2i.
            assert_eq!(*h, i + 4 * i);
        }
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn pool_for_each_mut2_rejects_mismatched_lengths() {
        let pool = Pool::new(1);
        let mut a = vec![0u8; 3];
        let mut b = vec![0u8; 4];
        pool.for_each_mut2(&mut a, &mut b, |_, _, _| {});
    }

    #[test]
    fn pool_with_one_thread_is_serial() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut items = vec![1u8; 17];
        let mut visit_order = vec![0usize; 17];
        let next = AtomicUsize::new(0);
        pool.for_each_mut2(&mut items, &mut visit_order, |_, v, nth| {
            *v *= 2;
            *nth = next.fetch_add(1, Ordering::Relaxed);
        });
        assert!(items.iter().all(|&v| v == 2));
        assert!(
            visit_order.iter().enumerate().all(|(i, &nth)| nth == i),
            "the plain serial loop"
        );
    }

    #[test]
    fn pool_survives_worker_panics() {
        let pool = Pool::new(3);
        let mut items = vec![0i32; 64];
        let mut other = vec![0i32; 64];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_mut2(&mut items, &mut other, |i, _, _| assert!(i != 40, "boom"));
        }));
        assert!(result.is_err());
        // The pool remains usable after the panic.
        pool.for_each_mut2(&mut items, &mut other, |_, v, w| {
            *v = 7;
            *w = 8;
        });
        assert!(items.iter().all(|&v| v == 7));
        assert!(other.iter().all(|&w| w == 8));
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
