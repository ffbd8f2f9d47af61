//! The controlled scheduler: runs a model's threads one at a time (a baton
//! handed over at every instrumented operation) and drives a depth-first
//! search over every scheduling and value-injection decision, within a
//! bounded preemption and step budget.
//!
//! # How exploration works
//!
//! An *execution* runs the model once under a fully deterministic schedule.
//! Whenever more than one continuation is possible — which thread runs
//! next, or which history entry a stale-tolerant load observes — the
//! running thread consults the **script**: a prefix of decision indices
//! replayed from the previous execution, followed by default choices
//! (choice 0 = keep running the current thread / observe the latest
//! value). Every decision point records how many options it had; after the
//! execution finishes the driver backtracks to the deepest decision with
//! an untried alternative and reruns with the extended script. The search
//! is exhaustive over the bounded space: it terminates when no decision
//! has alternatives left, or when the execution budget runs out.
//!
//! Bounds (all in [`Config`]):
//!
//! * `max_preemptions` — context switches at points where the running
//!   thread could have continued. Most protocol bugs need only 2–3
//!   preemptions (research behind loom/shuttle's defaults), and the bound
//!   is what keeps the space tractable.
//! * `max_steps` — per-execution instrumented-op cap; exceeding it
//!   *prunes* the path (counted, never silently dropped). This is what
//!   bounds spin loops: models retry a bounded number of times and prune.
//! * `max_executions` — total DFS budget; exceeding it reports a
//!   non-exhaustive pass.
//!
//! A failed assertion, a deadlock, or an explicit [`fail`] stops the
//! search and produces a [`Report`]: the interleaved step trace, the same
//! trace grouped thread by thread, and the decision vector that replays
//! the schedule via [`Config::replay`].

use crate::mem::Memory;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Exploration bounds and replay control.
#[derive(Debug, Clone)]
pub struct Config {
    /// Voluntary context-switch budget per execution.
    pub max_preemptions: usize,
    /// Instrumented-op cap per execution; exceeding prunes the path.
    pub max_steps: usize,
    /// Total execution budget for the DFS.
    pub max_executions: usize,
    /// When set, run exactly this decision vector once (counterexample
    /// replay) instead of searching.
    pub replay: Option<Vec<usize>>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            max_preemptions: 3,
            max_steps: 600,
            max_executions: 250_000,
            replay: None,
        }
    }
}

impl Config {
    /// A config that replays one recorded schedule.
    pub fn replay(choices: Vec<usize>) -> Self {
        Self {
            replay: Some(choices),
            ..Self::default()
        }
    }
}

/// One recorded instrumented operation.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Model thread that executed the op.
    pub thread: usize,
    /// Human-readable op description (location label, ordering, value).
    pub op: String,
}

/// A counterexample: the schedule that violated a model assertion.
#[derive(Debug, Clone)]
pub struct Report {
    /// Model name as passed to [`explore`].
    pub name: String,
    /// The assertion / deadlock message.
    pub message: String,
    /// Interleaved steps in execution order.
    pub trace: Vec<TraceStep>,
    /// The decision vector; feed to [`Config::replay`] to rerun exactly
    /// this schedule.
    pub choices: Vec<usize>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample: {}", self.name)?;
        writeln!(f, "violation: {}", self.message)?;
        writeln!(f, "replay choices: {:?}", self.choices)?;
        writeln!(f, "schedule ({} steps):", self.trace.len())?;
        for (i, s) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>4}  T{}  {}", i + 1, s.thread, s.op)?;
        }
        writeln!(f, "thread-by-thread:")?;
        let max_tid = self.trace.iter().map(|s| s.thread).max().unwrap_or(0);
        for tid in 0..=max_tid {
            writeln!(f, "  T{tid}:")?;
            for (i, s) in self
                .trace
                .iter()
                .enumerate()
                .filter(|(_, s)| s.thread == tid)
            {
                writeln!(f, "    [{:>4}] {}", i + 1, s.op)?;
            }
        }
        Ok(())
    }
}

/// Result of an exploration.
#[derive(Debug)]
pub enum Outcome {
    /// Every explored schedule upheld the model's assertions.
    Pass {
        /// Executions run (completed + pruned).
        executions: usize,
        /// Paths cut by the step budget (bounded spin retries).
        pruned: usize,
        /// True when the bounded space was fully enumerated; false when
        /// `max_executions` ran out first.
        exhausted: bool,
    },
    /// A schedule violated an assertion (or deadlocked).
    Counterexample(Box<Report>),
}

impl Outcome {
    /// The counterexample report, if the exploration found one.
    pub fn counterexample(&self) -> Option<&Report> {
        match self {
            Outcome::Counterexample(r) => Some(r),
            Outcome::Pass { .. } => None,
        }
    }

    /// True when every explored schedule passed.
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass { .. })
    }
}

/// Marker payload for pruned paths (step budget / abort unwinding); the
/// thread wrapper recognizes it and does not treat it as a failure.
struct Pruned;

/// Thread run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Waiting for a thread to finish.
    BlockedOnJoin(usize),
    Finished,
}

/// Why the execution is unwinding early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abort {
    Pruned,
    Failed,
}

#[derive(Debug)]
pub(crate) struct ExecState {
    pub(crate) mem: Memory,
    threads: Vec<Status>,
    current: usize,
    script: Vec<usize>,
    decisions: Vec<(usize, usize)>,
    preemptions_left: usize,
    steps_left: usize,
    trace: Vec<TraceStep>,
    failure: Option<String>,
    abort: Option<Abort>,
    live: usize,
    /// Labels for trace rendering: location address → name.
    labels: HashMap<usize, &'static str>,
}

#[derive(Debug)]
pub(crate) struct Exec {
    state: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Exec>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The executing model thread's context, if any — `None` means the shim is
/// running outside the checker and must behave exactly like `std::sync`.
pub(crate) fn ctx() -> Option<(Arc<Exec>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

fn lock_state(exec: &Exec) -> MutexGuard<'_, ExecState> {
    exec.state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl ExecState {
    /// Picks `choice` among `options` alternatives, following the script
    /// prefix and recording the decision. Single-option points record
    /// nothing (they can never be backtracked).
    pub(crate) fn decide(&mut self, options: usize) -> usize {
        if options <= 1 {
            return 0;
        }
        let i = self.decisions.len();
        let choice = self.script.get(i).copied().unwrap_or(0).min(options - 1);
        self.decisions.push((choice, options));
        choice
    }

    fn runnable_after(&self, tid: usize) -> Vec<usize> {
        // Current thread first (choice 0 = no preemption), then the rest
        // in tid order — a stable, deterministic option list.
        let mut opts: Vec<usize> = Vec::new();
        if self.threads.get(tid) == Some(&Status::Runnable) {
            opts.push(tid);
        }
        for (t, s) in self.threads.iter().enumerate() {
            if t != tid && *s == Status::Runnable {
                opts.push(t);
            }
        }
        opts
    }

    pub(crate) fn label_of(&self, loc: usize) -> String {
        match self.labels.get(&loc) {
            Some(name) => (*name).to_string(),
            None => format!("a@{loc:#x}"),
        }
    }

    pub(crate) fn set_label(&mut self, loc: usize, name: &'static str) {
        self.labels.insert(loc, name);
    }
}

impl Exec {
    fn new(script: Vec<usize>, cfg: &Config) -> Self {
        Self {
            state: Mutex::new(ExecState {
                mem: Memory::default(),
                threads: Vec::new(),
                current: 0,
                script,
                decisions: Vec::new(),
                preemptions_left: cfg.max_preemptions,
                steps_left: cfg.max_steps,
                trace: Vec::new(),
                failure: None,
                abort: None,
                live: 0,
                labels: HashMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Registers a new model thread; returns its tid.
    fn register_thread(&self, st: &mut ExecState) -> usize {
        let tid = st.threads.len();
        st.threads.push(Status::Runnable);
        st.mem.ensure_thread(tid);
        st.live += 1;
        tid
    }

    /// Scheduling point: consumes a step, possibly switches threads, and
    /// returns with the baton (and the state lock) back at `tid` — or
    /// `None` when the execution is aborted under a thread that is
    /// already unwinding (see [`unwind`](Self::unwind)): the caller then
    /// skips its model op.
    fn schedule<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        tid: usize,
    ) -> Option<MutexGuard<'a, ExecState>> {
        if st.abort.is_some() {
            return Self::unwind(st);
        }
        if st.steps_left == 0 {
            st.abort = Some(Abort::Pruned);
            self.cv.notify_all();
            return Self::unwind(st);
        }
        st.steps_left -= 1;

        let self_runnable = st.threads.get(tid) == Some(&Status::Runnable);
        let mut opts = st.runnable_after(tid);
        if self_runnable && st.preemptions_left == 0 {
            opts.truncate(1); // forced to continue
        }
        if opts.is_empty() {
            // Every thread is blocked: a real deadlock schedule.
            st.failure = Some(format!(
                "deadlock: thread T{tid} blocked with no runnable peer ({:?})",
                st.threads
            ));
            st.abort = Some(Abort::Failed);
            self.cv.notify_all();
            return Self::unwind(st);
        }
        let choice = st.decide(opts.len());
        let target = opts[choice];
        if target != tid {
            if self_runnable {
                st.preemptions_left -= 1;
            }
            st.current = target;
            self.cv.notify_all();
            while st.current != tid && st.abort.is_none() {
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            if st.abort.is_some() {
                return Self::unwind(st);
            }
        }
        Some(st)
    }

    /// Takes this thread out of an aborted execution by raising
    /// [`Pruned`] — unless it is already unwinding, through a `Drop` that
    /// touches a shim (a `SeqWindow` closing): a second
    /// panic there would abort the whole process. Such a thread gets
    /// `None` instead, and its shim op acts on the `std` mirror alone; the
    /// execution is void either way.
    fn unwind<T>(st: MutexGuard<'_, ExecState>) -> Option<T> {
        drop(st);
        if std::thread::panicking() {
            return None;
        }
        std::panic::panic_any(Pruned)
    }

    /// Runs one instrumented operation for `tid`: schedules, executes `f`
    /// against the state, records its trace line. `None` when the op is
    /// skipped (an unwinding thread in an aborted execution).
    pub(crate) fn op<R>(
        self: &Arc<Self>,
        tid: usize,
        f: impl FnOnce(&mut ExecState, usize) -> (R, String),
    ) -> Option<R> {
        let st = lock_state(self);
        let mut st = self.schedule(st, tid)?;
        let (r, desc) = f(&mut st, tid);
        st.trace.push(TraceStep {
            thread: tid,
            op: desc,
        });
        Some(r)
    }

    /// Spawns a model thread running `f`; returns its tid.
    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        parent: usize,
        f: Box<dyn FnOnce() + Send>,
    ) -> usize {
        let child = {
            let mut st = lock_state(self);
            let child = self.register_thread(&mut st);
            st.mem.inherit_view(parent, child);
            st.trace.push(TraceStep {
                thread: parent,
                op: format!("spawn T{child}"),
            });
            child
        };
        let exec = Arc::clone(self);
        std::thread::spawn(move || run_model_thread(exec, child, f));
        // Let the schedule decide whether the child runs first.
        let st = lock_state(self);
        let _st = self.schedule(st, parent);
        child
    }

    /// Blocks until thread `target` finishes.
    pub(crate) fn join_thread(self: &Arc<Self>, tid: usize, target: usize) {
        loop {
            let st = lock_state(self);
            let Some(mut st) = self.schedule(st, tid) else {
                return;
            };
            if st.threads.get(target) == Some(&Status::Finished) {
                // join() synchronizes-with the child's completion:
                // everything the child observed, the joiner now observes.
                st.mem.inherit_view(target, tid);
                st.trace.push(TraceStep {
                    thread: tid,
                    op: format!("join T{target}"),
                });
                return;
            }
            st.threads[tid] = Status::BlockedOnJoin(target);
        }
    }

    /// Marks `tid` finished and hands the baton onward (or completes the
    /// execution).
    fn finish_thread(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = lock_state(self);
        st.threads[tid] = Status::Finished;
        st.live -= 1;
        // A panic on an already-pruned execution is fallout of the prune
        // (other threads unwinding mid-protocol), not a model failure.
        if let Some(msg) = panic_msg {
            if st.abort != Some(Abort::Pruned) {
                if st.failure.is_none() {
                    st.failure = Some(msg);
                }
                st.abort = Some(Abort::Failed);
            }
        }
        for t in 0..st.threads.len() {
            if st.threads[t] == Status::BlockedOnJoin(tid) {
                st.threads[t] = Status::Runnable;
            }
        }
        // Hand the baton to any runnable thread (first in tid order —
        // a forced switch, not a decision: tid is done).
        if let Some(&next) = st.runnable_after(tid).first() {
            st.current = next;
        } else if st.live > 0 && st.abort.is_none() {
            // Everyone left is blocked: deadlock at thread exit.
            st.failure = Some(format!(
                "deadlock: all remaining threads blocked after T{tid} exited ({:?})",
                st.threads
            ));
            st.abort = Some(Abort::Failed);
        }
        self.cv.notify_all();
    }
}

/// Body shared by the root and spawned model threads: install the TLS
/// context, wait for the baton, run, classify the unwind.
fn run_model_thread(exec: Arc<Exec>, tid: usize, f: Box<dyn FnOnce() + Send>) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
    // Wait until granted.
    {
        let mut st = lock_state(&exec);
        while st.current != tid && st.abort.is_none() {
            st = exec
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
    let result = catch_unwind(AssertUnwindSafe(f));
    let panic_msg = match result {
        Ok(()) => None,
        Err(payload) => {
            if payload.downcast_ref::<Pruned>().is_some() {
                None // pruned/aborted path, not a model failure
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                Some((*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                Some(s.clone())
            } else {
                Some("model thread panicked with a non-string payload".to_string())
            }
        }
    };
    exec.finish_thread(tid, panic_msg);
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Fails the current schedule with `message` — the model-level assertion
/// primitive (plain `assert!` works too; this one reads better in traces).
pub fn fail(message: impl Into<String>) -> ! {
    // lint-allow(no-unwrap): panicking IS the violation signal — the model
    // thread's catch_unwind classifies the payload into a counterexample
    panic!("{}", message.into())
}

/// One execution's outcome: the decisions taken (with their branching
/// factors), the failure message if an assertion fired, the step trace,
/// and whether the step budget pruned the run.
struct ExecOutcome {
    decisions: Vec<(usize, usize)>,
    failure: Option<String>,
    trace: Vec<TraceStep>,
    pruned: bool,
}

/// Runs one execution under `script`.
fn run_one(cfg: &Config, script: Vec<usize>, model: &Arc<dyn Fn() + Send + Sync>) -> ExecOutcome {
    let exec = Arc::new(Exec::new(script, cfg));
    {
        let mut st = lock_state(&exec);
        let root = exec.register_thread(&mut st);
        st.current = root;
    }
    let m = Arc::clone(model);
    let root_exec = Arc::clone(&exec);
    let handle = std::thread::spawn(move || run_model_thread(root_exec, 0, Box::new(move || m())));
    // The root thread finishing does not mean the execution is over —
    // spawned threads may still run; wait for live == 0.
    let _ = handle.join();
    let mut st = lock_state(&exec);
    while st.live > 0 {
        st = exec
            .cv
            .wait(st)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
    let pruned = st.abort == Some(Abort::Pruned);
    ExecOutcome {
        decisions: std::mem::take(&mut st.decisions),
        failure: st.failure.take(),
        trace: std::mem::take(&mut st.trace),
        pruned,
    }
}

/// Computes the next DFS script from the decisions of the last execution,
/// or `None` when the space is exhausted.
fn next_script(decisions: &[(usize, usize)]) -> Option<Vec<usize>> {
    for i in (0..decisions.len()).rev() {
        let (choice, options) = decisions[i];
        if choice + 1 < options {
            let mut script: Vec<usize> = decisions[..i].iter().map(|&(c, _)| c).collect();
            script.push(choice + 1);
            return Some(script);
        }
    }
    None
}

/// Exhaustively explores `model` within `cfg`'s bounds.
///
/// `model` is rerun once per schedule; it must be deterministic apart from
/// the scheduler's decisions (build all state inside the closure, assert
/// invariants with plain `assert!`/[`fail`]).
pub fn explore(name: &str, cfg: Config, model: impl Fn() + Send + Sync + 'static) -> Outcome {
    let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let mut script = cfg.replay.clone().unwrap_or_default();
    let mut executions = 0usize;
    let mut pruned_count = 0usize;
    loop {
        executions += 1;
        let ExecOutcome {
            decisions,
            failure,
            trace,
            pruned,
        } = run_one(&cfg, script, &model);
        if pruned {
            pruned_count += 1;
        }
        if let Some(message) = failure {
            return Outcome::Counterexample(Box::new(Report {
                name: name.to_string(),
                message,
                trace,
                choices: decisions.iter().map(|&(c, _)| c).collect(),
            }));
        }
        if cfg.replay.is_some() {
            return Outcome::Pass {
                executions,
                pruned: pruned_count,
                exhausted: false,
            };
        }
        match next_script(&decisions) {
            Some(next) if executions < cfg.max_executions => script = next,
            Some(_) => {
                return Outcome::Pass {
                    executions,
                    pruned: pruned_count,
                    exhausted: false,
                }
            }
            None => {
                return Outcome::Pass {
                    executions,
                    pruned: pruned_count,
                    exhausted: true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim::{self, AtomicU64};
    use std::sync::atomic::Ordering;
    use std::sync::Arc as StdArc;

    #[test]
    fn next_script_backtracks_depth_first() {
        assert_eq!(next_script(&[(0, 2), (0, 3)]), Some(vec![0, 1]));
        assert_eq!(next_script(&[(0, 2), (2, 3)]), Some(vec![1]));
        assert_eq!(next_script(&[(1, 2), (2, 3)]), None);
        assert_eq!(next_script(&[]), None);
    }

    #[test]
    fn single_thread_model_passes_in_one_execution() {
        let outcome = explore("trivial", Config::default(), || {
            let a = AtomicU64::new(1);
            assert_eq!(a.load(Ordering::SeqCst), 1);
        });
        match outcome {
            Outcome::Pass {
                executions,
                exhausted,
                ..
            } => {
                assert!(exhausted);
                assert_eq!(executions, 1, "no decision points -> one schedule");
            }
            Outcome::Counterexample(r) => panic!("unexpected counterexample:\n{r}"),
        }
    }

    #[test]
    fn racy_unsynchronized_check_is_caught_and_replayable() {
        // Classic store-buffer-free race: the assert only fails when the
        // child runs between the two parent ops.
        let model = || {
            let flag = StdArc::new(AtomicU64::labelled("flag", 0));
            let f2 = StdArc::clone(&flag);
            let t = shim::spawn(move || {
                f2.store(1, Ordering::SeqCst);
            });
            let seen = flag.load(Ordering::SeqCst);
            t.join();
            assert_eq!(seen, 0, "child store observed before parent load");
        };
        let outcome = explore("racy", Config::default(), model);
        let report = outcome
            .counterexample()
            .expect("race must be found")
            .clone();
        assert!(report.message.contains("child store observed"));
        assert!(report.trace.iter().any(|s| s.op.contains("flag")));
        // The recorded choices replay to the same violation.
        let replayed = explore("racy-replay", Config::replay(report.choices.clone()), model);
        assert!(
            replayed.counterexample().is_some(),
            "replaying the reported choices must reproduce the violation"
        );
    }
}
