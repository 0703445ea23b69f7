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
//! # Nesting
//!
//! Parallel regions do not nest: work spawned from inside a worker runs
//! serially on that worker. This bounds the process to one level of
//! fan-out (at most `jobs()` threads busy at a time) no matter how the
//! sweep, engine and cache layers stack.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Pool/fan-out instrumentation. Worker counts and dispatch volumes
/// depend on `--jobs` and scheduling, so everything here lives in the
/// observability plane's `Timing` domain — exported for inspection,
/// masked by determinism comparisons.
mod obs_hooks {
    use mmog_obs::{counter, gauge, Counter, Domain, Gauge};
    use std::sync::{Arc, OnceLock};

    fn stat<T>(cell: &'static OnceLock<Arc<T>>, init: impl FnOnce() -> Arc<T>) -> &'static Arc<T> {
        cell.get_or_init(init)
    }

    /// Records one parallel-map region and the threads it applied.
    pub(crate) fn record_par_map(workers: usize, items: usize) {
        static REGIONS: OnceLock<Arc<Counter>> = OnceLock::new();
        static WORKERS: OnceLock<Arc<Gauge>> = OnceLock::new();
        stat(&REGIONS, || counter("par.map.regions", Domain::Timing)).incr();
        stat(&WORKERS, || gauge("par.map.workers_max", Domain::Timing))
            .set_max(workers.min(items) as i64);
    }

    /// Records one pool dispatch: fan-out width and worker utilization.
    pub(crate) fn record_dispatch(threads: usize, items: usize) {
        static DISPATCHES: OnceLock<Arc<Counter>> = OnceLock::new();
        static QUEUE: OnceLock<Arc<Gauge>> = OnceLock::new();
        static ACTIVE: OnceLock<Arc<Gauge>> = OnceLock::new();
        stat(&DISPATCHES, || {
            counter("par.pool.dispatches", Domain::Timing)
        })
        .incr();
        stat(&QUEUE, || gauge("par.pool.queue_depth_max", Domain::Timing)).set_max(items as i64);
        stat(&ACTIVE, || {
            gauge("par.pool.active_workers_max", Domain::Timing)
        })
        .set_max(threads.min(items) as i64);
    }

    /// Records a pool being built with the given thread count.
    pub(crate) fn record_pool(threads: usize) {
        static POOLS: OnceLock<Arc<Counter>> = OnceLock::new();
        static THREADS: OnceLock<Arc<Gauge>> = OnceLock::new();
        stat(&POOLS, || counter("par.pool.created", Domain::Timing)).incr();
        stat(&THREADS, || gauge("par.pool.threads_max", Domain::Timing)).set_max(threads as i64);
    }
}

/// Global worker-count override; 0 means "not set, use the default".
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while the current thread executes inside a parallel region.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// The number of logical CPUs the process may use.
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Sets the global worker count. `0` restores the default (the
/// `MMOG_JOBS` environment variable if set, else all logical CPUs).
/// `1` disables parallelism entirely — every entry point degenerates to
/// the serial loop.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count for new parallel regions.
#[must_use]
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::env::var("MMOG_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(available_jobs),
        n => n,
    }
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
    obs_hooks::record_par_map(workers, n);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
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
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
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
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        obs_hooks::record_pool(workers.len() + 1);
        Self { shared, workers }
    }

    /// A pool sized by the global [`jobs`] setting.
    #[must_use]
    pub fn with_global_jobs() -> Self {
        Self::new(jobs())
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
        obs_hooks::record_dispatch(self.threads(), n);

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

    /// Serialises tests that touch the global jobs setting (the test
    /// harness runs tests concurrently in one process).
    static JOBS_LOCK: Mutex<()> = Mutex::new(());

    fn jobs_guard() -> std::sync::MutexGuard<'static, ()> {
        JOBS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_for_any_jobs() {
        let _guard = jobs_guard();
        let items: Vec<u64> = (0..200).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for j in [1, 2, 3, 8] {
            set_jobs(j);
            assert_eq!(par_map(&items, |&x| x.wrapping_mul(x)), serial, "jobs={j}");
        }
        set_jobs(0);
    }

    #[test]
    fn nested_regions_run_serially() {
        let _guard = jobs_guard();
        set_jobs(4);
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(&outer, |&i| {
            assert!(in_parallel());
            let inner: Vec<usize> = (0..10).collect();
            // Nested call must not spawn; it still returns in order.
            par_map(&inner, |&j| i * 100 + j)
        });
        set_jobs(0);
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner.len(), 10);
            assert_eq!(inner[3], i * 100 + 3);
        }
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
        let _guard = jobs_guard();
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }
}
