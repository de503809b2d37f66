//! Deterministic fault injection for exercising recovery paths.
//!
//! Every fault-tolerance mechanism in the workspace — non-finite guards,
//! budget deadlines, retry escalation, campaign panic isolation — has a
//! failure mode that is hard to provoke with a real circuit and impossible
//! to provoke *deterministically*. This module provides injectable failure
//! points so CI can drive each recovery path on demand, in the spirit of
//! the bit-identity property tests: same plan, same failures, every run.
//!
//! The harness is gated behind the `fault-inject` cargo feature. Without
//! the feature every hook is an `#[inline(always)]` no-op and the product
//! code paths compile exactly as before; with it, a `FaultPlan` installed
//! on the current thread (and propagated to [`crate::par::map_scoped`]
//! workers) arms specific *sites*:
//!
//! ```ignore
//! use tranvar_engine::fault::{sites, FaultAction, FaultPlan};
//!
//! // Make the 3rd factorization call return a NaN factor, and panic when
//! // campaign scenario 1 is solved.
//! let _guard = FaultPlan::new()
//!     .fail(sites::FACTOR, 2, FaultAction::NonFinite)
//!     .fail(sites::SCENARIO, 1, FaultAction::Panic)
//!     .install();
//! ```
//!
//! Two trigger styles exist: *counted* sites fire on the n-th call at that
//! site (per-plan call counter), *indexed* sites fire when the caller's own
//! index (attempt number, scenario ordinal) matches. A plan also carries an
//! optional mock clock consulted by [`crate::budget::SolveBudget`] deadline
//! checks, so deadline tests never sleep.
//!
//! # Worked example: forcing the retry ladder to climb
//!
//! With `fault-inject` enabled, an armed [`sites::RETRY_ATTEMPT`] makes
//! attempt 0 of a [`crate::retry::run_ladder`] climb fail with a synthetic
//! `NoConvergence`, so the ladder *must* climb to its first real rung —
//! deterministically, with a solve that would otherwise succeed first try
//! (the doctest body compiles away without the feature). A campaign with
//! `tranvar_core`'s `Campaign::with_retry` climbs the same way, since its
//! per-solve ladder is this loop:
//!
//! ```
//! # #[cfg(feature = "fault-inject")] fn main() {
//! use tranvar_engine::fault::{sites, FaultAction, FaultPlan};
//! use tranvar_engine::retry::{is_retryable, ladder, run_ladder, RetryPolicy};
//! use tranvar_engine::{EngineError, SolveBudget, SolveDiagnostics};
//!
//! let _guard = FaultPlan::new()
//!     .fail(sites::RETRY_ATTEMPT, 0, FaultAction::NoConverge)
//!     .install();
//! let mut diag = SolveDiagnostics::new();
//! let res = run_ladder(
//!     ladder(&RetryPolicy::default()),
//!     &SolveBudget::unlimited(),
//!     "example",
//!     &mut diag,
//!     is_retryable,
//!     EngineError::clone,
//!     |_esc| Ok(()),
//! );
//! assert!(res.is_ok());
//! assert_eq!(diag.stages(), ["retry[0]:initial", "retry[1]:halve-dt"]);
//! # }
//! # #[cfg(not(feature = "fault-inject"))] fn main() {}
//! ```

/// Site names for the injectable failure points.
///
/// Present (and referenced by product code) regardless of the feature so
/// call sites need no `cfg` — the hooks themselves compile to no-ops
/// without `fault-inject`.
pub mod sites {
    /// Counted: every `JacobianWorkspace::factor` call.
    pub const FACTOR: &str = "engine::solver::factor";
    /// Counted: the residual-norm check in each DC Newton iteration.
    pub const DC_RESIDUAL: &str = "engine::dc::residual";
    /// Counted: the update-norm check in each transient Newton iteration.
    pub const TRAN_UPDATE: &str = "engine::tran::update";
    /// Counted: the LTE error-norm evaluation of each adaptive-step verdict
    /// (poisoning it forces a rejection, so a range of hits simulates a
    /// rejected-step storm).
    pub const TRAN_LTE: &str = "engine::tran::lte";
    /// Indexed: one per DC homotopy stage solve (direct, gmin walk entries,
    /// source steps), in attempt order.
    pub const DC_STAGE: &str = "engine::dc::stage";
    /// Indexed: one per retry-escalation attempt.
    pub const RETRY_ATTEMPT: &str = "engine::retry::attempt";
    /// Indexed: one per unique campaign solve, in scenario order.
    pub const SCENARIO: &str = "core::campaign::scenario";
    /// Indexed: one per accepted server request, in admission order.
    pub const SERVE_REQUEST: &str = "serve::request";
    /// Indexed: one per unique server-side solve, in solve order.
    pub const SERVE_SOLVE: &str = "serve::solve";
    /// Indexed: one per server worker, by worker ordinal. Armed with
    /// [`FaultAction::Stall`](super::FaultAction::Stall) it parks that
    /// worker until `FaultGuard::release_stalls` (or guard drop).
    pub const SERVE_WORKER: &str = "serve::worker";
}

/// What an armed site does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Return `NumError::Singular` (counted sites) or the engine-level
    /// equivalent (indexed sites).
    Singular,
    /// Return `NumError::NonFinite` / `EngineError::NonFinite`.
    NonFinite,
    /// Poison a residual/update with NaN (counted guard sites only).
    PoisonNan,
    /// Return a synthetic `EngineError::NoConvergence` (indexed sites).
    NoConverge,
    /// Panic with an "injected panic" message.
    Panic,
    /// Expire the plan's mock clock: the first firing pins the mocked
    /// elapsed time far past any configured deadline, so every
    /// `SolveBudget` deadline check sharing the plan trips from then on.
    /// The real budget machinery surfaces the resulting `BudgetExceeded`,
    /// not the hook.
    Expire,
    /// Park the calling thread until `FaultGuard::release_stalls` runs
    /// (or the installing guard drops). Used to simulate a stuck worker;
    /// a 30 s safety cap prevents a forgotten release from hanging CI.
    Stall,
}

#[cfg(feature = "fault-inject")]
pub use enabled::*;

#[cfg(feature = "fault-inject")]
mod enabled {
    use super::FaultAction;
    use crate::error::EngineError;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;
    use tranvar_num::NumError;

    /// What [`FaultAction::Expire`] pins the mock clock to: far enough past
    /// any test deadline that every subsequent check trips.
    const EXPIRED_ELAPSED: Duration = Duration::from_secs(100 * 365 * 24 * 3600);

    /// Safety cap on an armed stall, so a forgotten
    /// [`FaultGuard::release_stalls`] fails a test instead of hanging CI.
    const STALL_CAP: Duration = Duration::from_secs(30);

    /// One armed failure point: fires when the trigger index at `site`
    /// falls in `[from, from + count)`.
    #[derive(Clone, Debug)]
    struct FaultSpec {
        site: &'static str,
        from: usize,
        count: usize,
        action: FaultAction,
    }

    #[derive(Debug)]
    struct PlanState {
        specs: Vec<FaultSpec>,
        mock_elapsed: Mutex<Option<Duration>>,
        counters: Mutex<HashMap<&'static str, usize>>,
        /// `true` once stalls have been released; armed stalls park until
        /// then (or until [`STALL_CAP`]).
        stalls_released: Mutex<bool>,
        stall_cv: Condvar,
    }

    impl PlanState {
        fn fresh(specs: Vec<FaultSpec>, mock_elapsed: Option<Duration>) -> Self {
            PlanState {
                specs,
                mock_elapsed: Mutex::new(mock_elapsed),
                counters: Mutex::new(HashMap::new()),
                stalls_released: Mutex::new(false),
                stall_cv: Condvar::new(),
            }
        }

        fn bump(&self, site: &'static str) -> usize {
            let mut c = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            let n = c.entry(site).or_insert(0);
            let prev = *n;
            *n += 1;
            prev
        }

        fn action_at(&self, site: &str, idx: usize) -> Option<FaultAction> {
            self.specs
                .iter()
                .find(|s| s.site == site && idx >= s.from && idx < s.from + s.count)
                .map(|s| s.action)
        }

        fn expire_clock(&self) {
            *self.mock_elapsed.lock().unwrap_or_else(|e| e.into_inner()) = Some(EXPIRED_ELAPSED);
        }

        fn stall(&self) {
            let released = self
                .stalls_released
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let _ = self
                .stall_cv
                .wait_timeout_while(released, STALL_CAP, |r| !*r);
        }

        fn release_stalls(&self) {
            *self
                .stalls_released
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = true;
            self.stall_cv.notify_all();
        }
    }

    thread_local! {
        static ACTIVE: RefCell<Option<Arc<PlanState>>> = const { RefCell::new(None) };
    }

    /// A builder for a set of armed failure points.
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        specs: Vec<FaultSpec>,
        mock_elapsed: Option<Duration>,
    }

    impl FaultPlan {
        /// An empty plan (no armed sites).
        pub fn new() -> Self {
            FaultPlan::default()
        }

        /// Arms `site` to perform `action` on trigger index `at` (the n-th
        /// call for counted sites, the caller-supplied index for indexed
        /// sites).
        pub fn fail(self, site: &'static str, at: usize, action: FaultAction) -> Self {
            self.fail_range(site, at, 1, action)
        }

        /// Arms `site` for `count` consecutive trigger indices starting at
        /// `from`.
        pub fn fail_range(
            mut self,
            site: &'static str,
            from: usize,
            count: usize,
            action: FaultAction,
        ) -> Self {
            self.specs.push(FaultSpec {
                site,
                from,
                count,
                action,
            });
            self
        }

        /// Fixes the elapsed time every `SolveBudget` deadline check sees.
        pub fn mock_elapsed(mut self, d: Duration) -> Self {
            self.mock_elapsed = Some(d);
            self
        }

        /// Installs the plan on the current thread, returning an RAII guard
        /// that restores the previous plan on drop.
        pub fn install(self) -> FaultGuard {
            let state = Arc::new(PlanState::fresh(self.specs, self.mock_elapsed));
            let prev = ACTIVE.with(|a| a.replace(Some(state.clone())));
            FaultGuard { prev, state }
        }
    }

    /// RAII handle for an installed [`FaultPlan`].
    #[derive(Debug)]
    pub struct FaultGuard {
        prev: Option<Arc<PlanState>>,
        state: Arc<PlanState>,
    }

    impl FaultGuard {
        /// How many times `site` has been triggered under this plan.
        pub fn hits(&self, site: &str) -> usize {
            self.state
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(site)
                .copied()
                .unwrap_or(0)
        }

        /// Re-fixes the mocked elapsed time (e.g. to advance past a
        /// deadline mid-test).
        pub fn set_mock_elapsed(&self, d: Duration) {
            *self
                .state
                .mock_elapsed
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(d);
        }

        /// Wakes every thread parked by an armed [`FaultAction::Stall`].
        /// Idempotent; also runs automatically when the guard drops.
        pub fn release_stalls(&self) {
            self.state.release_stalls();
        }
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            // Never leave a worker parked behind a dead plan.
            self.state.release_stalls();
            let prev = self.prev.take();
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }

    /// A shareable handle to the thread's active plan, for propagating into
    /// worker threads (see [`crate::par::map_scoped`]).
    #[derive(Clone, Debug)]
    pub struct ActivePlan(Arc<PlanState>);

    /// The current thread's active plan, if any.
    pub fn current() -> Option<ActivePlan> {
        ACTIVE.with(|a| a.borrow().clone()).map(ActivePlan)
    }

    /// Installs a shared plan on this (worker) thread; the guard restores
    /// the previous plan on drop.
    pub fn adopt(plan: Option<ActivePlan>) -> FaultGuard {
        let state = match plan {
            Some(p) => p.0,
            None => Arc::new(PlanState::fresh(Vec::new(), None)),
        };
        let prev = ACTIVE.with(|a| a.replace(Some(state.clone())));
        FaultGuard { prev, state }
    }

    fn with_active<R>(f: impl FnOnce(&PlanState) -> R) -> Option<R> {
        ACTIVE.with(|a| a.borrow().clone()).map(|st| f(&st))
    }

    /// Counted hook: an injected factorization failure at `site`, if armed
    /// for this call ordinal.
    pub fn numeric_fault(site: &'static str) -> Option<NumError> {
        with_active(|st| {
            let idx = st.bump(site);
            match st.action_at(site, idx) {
                Some(FaultAction::Singular) => Some(NumError::Singular { col: 0 }),
                Some(FaultAction::NonFinite) => Some(NumError::NonFinite { col: 0 }),
                Some(FaultAction::Panic) => panic!("injected panic at {site}[{idx}]"),
                _ => None,
            }
        })
        .flatten()
    }

    /// Counted hook: true when `site` should poison the current value with
    /// NaN.
    pub fn poison_nan(site: &'static str) -> bool {
        with_active(|st| {
            let idx = st.bump(site);
            matches!(st.action_at(site, idx), Some(FaultAction::PoisonNan))
        })
        .unwrap_or(false)
    }

    /// Indexed hook: an injected engine error for attempt/stage `index` at
    /// `site`, if armed.
    pub fn attempt_fault(site: &'static str, index: usize) -> Option<EngineError> {
        with_active(|st| {
            st.bump(site);
            match st.action_at(site, index) {
                Some(FaultAction::NoConverge) => Some(EngineError::NoConvergence {
                    analysis: site.to_string(),
                    detail: format!("injected fault at attempt {index}"),
                }),
                Some(FaultAction::NonFinite) => Some(EngineError::NonFinite {
                    analysis: site.to_string(),
                    detail: format!("injected fault at attempt {index}"),
                }),
                Some(FaultAction::Singular) => {
                    Some(EngineError::Num(NumError::Singular { col: 0 }))
                }
                Some(FaultAction::Panic) => panic!("injected panic at {site}[{index}]"),
                _ => None,
            }
        })
        .flatten()
    }

    /// Indexed hook for server-side injection points
    /// ([`super::sites::SERVE_REQUEST`], [`super::sites::SERVE_SOLVE`],
    /// [`super::sites::SERVE_WORKER`]).
    ///
    /// Extends [`attempt_fault`] with the two server-shaped actions:
    /// [`FaultAction::Expire`] pins the plan's mock clock past every
    /// deadline and lets the real budget machinery produce the error;
    /// [`FaultAction::Stall`] parks the calling thread until
    /// [`FaultGuard::release_stalls`] and then proceeds normally. Both
    /// return `None` (no synthetic error of their own).
    pub fn request_fault(site: &'static str, index: usize) -> Option<EngineError> {
        with_active(|st| {
            st.bump(site);
            match st.action_at(site, index) {
                Some(FaultAction::NoConverge) => Some(EngineError::NoConvergence {
                    analysis: site.to_string(),
                    detail: format!("injected fault at request {index}"),
                }),
                Some(FaultAction::NonFinite) => Some(EngineError::NonFinite {
                    analysis: site.to_string(),
                    detail: format!("injected fault at request {index}"),
                }),
                Some(FaultAction::Singular) => {
                    Some(EngineError::Num(NumError::Singular { col: 0 }))
                }
                Some(FaultAction::Panic) => panic!("injected panic at {site}[{index}]"),
                Some(FaultAction::Expire) => {
                    st.expire_clock();
                    None
                }
                Some(FaultAction::Stall) => {
                    st.stall();
                    None
                }
                Some(FaultAction::PoisonNan) | None => None,
            }
        })
        .flatten()
    }

    /// Indexed hook: panics if `site` is armed with [`FaultAction::Panic`]
    /// for `index`.
    pub fn panic_at(site: &'static str, index: usize) {
        let fire = with_active(|st| {
            st.bump(site);
            matches!(st.action_at(site, index), Some(FaultAction::Panic))
        })
        .unwrap_or(false);
        if fire {
            panic!("injected panic at {site}[{index}]");
        }
    }

    /// The mocked elapsed time for budget deadline checks, if set.
    pub fn mock_elapsed() -> Option<Duration> {
        with_active(|st| *st.mock_elapsed.lock().unwrap_or_else(|e| e.into_inner())).flatten()
    }
}

#[cfg(not(feature = "fault-inject"))]
mod disabled {
    use crate::error::EngineError;
    use tranvar_num::NumError;

    /// No-op without the `fault-inject` feature.
    #[inline(always)]
    pub fn numeric_fault(_site: &str) -> Option<NumError> {
        None
    }

    /// No-op without the `fault-inject` feature.
    #[inline(always)]
    pub fn poison_nan(_site: &str) -> bool {
        false
    }

    /// No-op without the `fault-inject` feature.
    #[inline(always)]
    pub fn attempt_fault(_site: &str, _index: usize) -> Option<EngineError> {
        None
    }

    /// No-op without the `fault-inject` feature.
    #[inline(always)]
    pub fn request_fault(_site: &str, _index: usize) -> Option<EngineError> {
        None
    }

    /// No-op without the `fault-inject` feature.
    #[inline(always)]
    pub fn panic_at(_site: &str, _index: usize) {}
}

#[cfg(not(feature = "fault-inject"))]
pub use disabled::*;

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;
    use crate::EngineError;
    use std::time::Duration;
    use tranvar_num::NumError;

    #[test]
    fn counted_site_fires_on_exact_ordinal() {
        let guard = FaultPlan::new()
            .fail(sites::FACTOR, 2, FaultAction::Singular)
            .install();
        assert_eq!(numeric_fault(sites::FACTOR), None);
        assert_eq!(numeric_fault(sites::FACTOR), None);
        assert_eq!(
            numeric_fault(sites::FACTOR),
            Some(NumError::Singular { col: 0 })
        );
        assert_eq!(numeric_fault(sites::FACTOR), None);
        assert_eq!(guard.hits(sites::FACTOR), 4);
    }

    #[test]
    fn indexed_site_ignores_call_order() {
        let _guard = FaultPlan::new()
            .fail(sites::RETRY_ATTEMPT, 1, FaultAction::NoConverge)
            .install();
        assert!(attempt_fault(sites::RETRY_ATTEMPT, 0).is_none());
        assert!(matches!(
            attempt_fault(sites::RETRY_ATTEMPT, 1),
            Some(EngineError::NoConvergence { .. })
        ));
        assert!(attempt_fault(sites::RETRY_ATTEMPT, 2).is_none());
    }

    #[test]
    fn plans_nest_and_restore() {
        assert_eq!(numeric_fault(sites::FACTOR), None);
        {
            let _outer = FaultPlan::new()
                .fail(sites::FACTOR, 0, FaultAction::Singular)
                .install();
            assert!(numeric_fault(sites::FACTOR).is_some());
            {
                let _inner = FaultPlan::new().install();
                assert_eq!(numeric_fault(sites::FACTOR), None);
            }
        }
        assert_eq!(numeric_fault(sites::FACTOR), None);
    }

    #[test]
    fn mock_clock_is_settable() {
        let guard = FaultPlan::new()
            .mock_elapsed(Duration::from_secs(1))
            .install();
        assert_eq!(mock_elapsed(), Some(Duration::from_secs(1)));
        guard.set_mock_elapsed(Duration::from_secs(5));
        assert_eq!(mock_elapsed(), Some(Duration::from_secs(5)));
    }

    #[test]
    fn plan_propagates_to_adopting_thread() {
        let _guard = FaultPlan::new()
            .fail(sites::FACTOR, 0, FaultAction::NonFinite)
            .install();
        let plan = current();
        let got = std::thread::scope(|s| {
            s.spawn(move || {
                let _adopted = adopt(plan);
                numeric_fault(sites::FACTOR)
            })
            .join()
            .unwrap()
        });
        assert_eq!(got, Some(NumError::NonFinite { col: 0 }));
    }

    #[test]
    fn expire_action_pins_the_mock_clock_for_the_whole_plan() {
        let _guard = FaultPlan::new()
            .fail(sites::SERVE_SOLVE, 1, FaultAction::Expire)
            .install();
        assert!(request_fault(sites::SERVE_SOLVE, 0).is_none());
        assert_eq!(mock_elapsed(), None);
        // Firing at index 1 expires the clock; no synthetic error returned.
        assert!(request_fault(sites::SERVE_SOLVE, 1).is_none());
        assert!(mock_elapsed().unwrap() >= Duration::from_secs(3600));
        // Budget deadline checks now trip through the real machinery.
        use crate::budget::{BudgetLimits, SolveBudget};
        let b = SolveBudget::new(BudgetLimits::default().deadline(Duration::from_secs(1)));
        assert!(b.deadline_expired());
    }

    #[test]
    fn stall_parks_until_release() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let guard = FaultPlan::new()
            .fail(sites::SERVE_WORKER, 0, FaultAction::Stall)
            .install();
        let plan = current();
        let passed = Arc::new(AtomicBool::new(false));
        let passed2 = passed.clone();
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                let _adopted = adopt(plan);
                assert!(request_fault(sites::SERVE_WORKER, 0).is_none());
                passed2.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(!passed.load(Ordering::SeqCst), "worker must be parked");
            guard.release_stalls();
            h.join().unwrap();
        });
        assert!(passed.load(Ordering::SeqCst));
        // Released stalls stay released: a second armed hit passes through.
        assert!(request_fault(sites::SERVE_WORKER, 0).is_none());
    }

    #[test]
    fn poison_fires_once() {
        let _guard = FaultPlan::new()
            .fail(sites::DC_RESIDUAL, 0, FaultAction::PoisonNan)
            .install();
        assert!(poison_nan(sites::DC_RESIDUAL));
        assert!(!poison_nan(sites::DC_RESIDUAL));
    }
}
