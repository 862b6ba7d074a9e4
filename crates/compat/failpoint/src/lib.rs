//! Offline stand-in for a `fail`-style fault-injection crate: a global
//! registry of named **failpoints** that tests arm at runtime to inject
//! panics, sleeps, and early returns into otherwise panic-free code.
//!
//! Production code marks an injection site with [`eval`] (or the
//! convenience wrappers [`fail_if`] / [`sleep_if`]) under a stable,
//! `module::site` style name. When the registry is empty — the only
//! state a release binary ever sees unless an operator sets
//! `FAILPOINTS=` — the site costs a single relaxed atomic load, so
//! failpoints may sit on hot paths.
//!
//! Tests arm sites with [`cfg`] using a tiny task grammar:
//!
//! | Spec          | Effect at the site                                 |
//! |---------------|----------------------------------------------------|
//! | `panic`       | `panic!` (what supervision tests inject)           |
//! | `return`      | report [`Action::Return`]: caller bails out early  |
//! | `sleep(250)`  | block the calling thread for 250 ms                |
//! | `off`         | disarm the site                                    |
//! | `2*panic`     | fire twice, then disarm (any task takes a count)   |
//!
//! The environment form `FAILPOINTS=name=spec;name=spec` is read once
//! per process by [`init_from_env`] (the serve daemon calls it on
//! startup), which is what lets the CI crash-recovery smoke kill a
//! *live* process at a deterministic point.
//!
//! Everything is `std`-only and process-global, so a test that arms a
//! site — or that runs code an armed site could reach — first takes
//! [`scope`]: the guard serialises such tests across the process and
//! disarms every site when it drops, also when the test panics, so an
//! armed fault never outlives the test that armed it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// What an armed failpoint injects at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic at the site (exercises supervision / catch_unwind paths).
    Panic,
    /// The caller should abandon the operation (typed-error paths).
    Return,
    /// The calling thread slept for the given milliseconds before
    /// returning (latency / deadline / overload paths). The sleep has
    /// already happened when [`eval`] hands this back.
    Sleep(u64),
}

/// One armed registry entry: a task plus an optional remaining-fire
/// budget (`None` = unlimited).
#[derive(Debug, Clone, Copy)]
struct Entry {
    action: Action,
    remaining: Option<u64>,
}

/// Fast-path gate: `true` only while at least one failpoint is armed.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<String, Entry>> {
    // A panic while holding the lock can only come from a panicking
    // allocator; the map stays structurally valid either way.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parse a task spec (`panic`, `return`, `sleep(ms)`, `off`, all
/// optionally prefixed `count*`).
fn parse_spec(spec: &str) -> Result<Option<Entry>, String> {
    let spec = spec.trim();
    let (count, task) = match spec.split_once('*') {
        Some((n, task)) => {
            let n: u64 = n
                .trim()
                .parse()
                .map_err(|_| format!("bad fire count in failpoint spec {spec:?}"))?;
            (Some(n), task.trim())
        }
        None => (None, spec),
    };
    let action = if task == "panic" {
        Action::Panic
    } else if task == "return" {
        Action::Return
    } else if task == "off" {
        return Ok(None);
    } else if let Some(ms) = task
        .strip_prefix("sleep(")
        .and_then(|t| t.strip_suffix(')'))
    {
        Action::Sleep(
            ms.trim()
                .parse()
                .map_err(|_| format!("bad sleep duration in failpoint spec {spec:?}"))?,
        )
    } else {
        return Err(format!(
            "unknown failpoint task {task:?} (known: panic, return, sleep(ms), off)"
        ));
    };
    Ok(Some(Entry {
        action,
        remaining: count,
    }))
}

/// Arm (or re-arm) the named failpoint with a task spec. See the crate
/// docs for the grammar; `off` disarms.
pub fn cfg(name: &str, spec: &str) -> Result<(), String> {
    let entry = parse_spec(spec)?;
    let mut map = lock();
    match entry {
        Some(entry) => {
            map.insert(name.to_string(), entry);
        }
        None => {
            map.remove(name);
        }
    }
    ARMED.store(!map.is_empty(), Ordering::SeqCst);
    Ok(())
}

/// Exclusive use of the failpoint registry, from [`scope`] until drop.
#[must_use = "the scope ends, and every site disarms, when the guard drops"]
pub struct Scope {
    _exclusive: MutexGuard<'static, ()>,
}

/// Enter a failpoint scope: wait for any other scope in the process to
/// end, then hold the registry until the returned guard drops. Dropping
/// it — normally or while unwinding from a failed assertion — disarms
/// every site, so the next scope always starts from an empty registry.
///
/// Take it as the first line of every test that arms a site with
/// [`cfg`], and of every test in the same binary whose code could reach
/// a site a neighbour arms (anything that builds an engine, a WAL or a
/// timeline).
pub fn scope() -> Scope {
    static EXCLUSIVE: Mutex<()> = Mutex::new(());
    // A poisoned lock only says an earlier scope's test failed; its
    // guard still disarmed everything on the way out.
    Scope {
        _exclusive: EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        lock().clear();
        ARMED.store(false, Ordering::SeqCst);
    }
}

/// Names currently armed, sorted (diagnostics and test assertions).
pub fn list() -> Vec<String> {
    let map = lock();
    let mut names: Vec<String> = map.keys().cloned().collect();
    names.sort();
    names
}

/// Arm failpoints from the `FAILPOINTS` environment variable
/// (`name=spec;name=spec`). Returns the number of failpoints armed;
/// malformed entries are reported on stderr and skipped rather than
/// aborting startup.
pub fn init_from_env() -> usize {
    let Ok(raw) = std::env::var("FAILPOINTS") else {
        return 0;
    };
    let mut armed = 0;
    for part in raw.split(';').filter(|p| !p.trim().is_empty()) {
        match part.split_once('=') {
            Some((name, spec)) => match cfg(name.trim(), spec) {
                Ok(()) => armed += 1,
                Err(e) => eprintln!("failpoint: ignoring FAILPOINTS entry {part:?}: {e}"),
            },
            None => eprintln!("failpoint: ignoring malformed FAILPOINTS entry {part:?}"),
        }
    }
    armed
}

/// The injection site: returns the armed action for `name`, or `None`
/// when unarmed (the overwhelmingly common case — one relaxed atomic
/// load, no lock).
///
/// A [`Action::Sleep`] is performed *here*, so callers that only need
/// latency injection can ignore the return value. Count-limited entries
/// are decremented and disarmed when exhausted.
pub fn eval(name: &str) -> Option<Action> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let action = {
        let mut map = lock();
        let entry = map.get_mut(name)?;
        let action = entry.action;
        if let Some(remaining) = &mut entry.remaining {
            *remaining = remaining.saturating_sub(1);
            if *remaining == 0 {
                map.remove(name);
                ARMED.store(!map.is_empty(), Ordering::SeqCst);
            }
        }
        action
    };
    if let Action::Sleep(ms) = action {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    Some(action)
}

/// `true` when the named failpoint is armed with [`Action::Return`]:
/// the idiomatic guard for typed-error injection, reading as
/// `if failpoint::fail_if("engine::x") { return Err(...) }`.
pub fn fail_if(name: &str) -> bool {
    matches!(eval(name), Some(Action::Return))
}

/// Evaluate the site for latency injection only; panics if the site is
/// armed with [`Action::Panic`] (so a `panic`-armed site still panics
/// even when reached through this wrapper).
pub fn sleep_if(name: &str) {
    if let Some(Action::Panic) = eval(name) {
        // The entire purpose of an armed `panic` failpoint is to
        // panic; sites are unreachable in release use.
        panic!("failpoint {name:?} armed with panic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and `cargo test` shares one
    // process across unit tests, so every test here that arms a site
    // runs inside a scope.

    #[test]
    fn unarmed_sites_cost_nothing_and_return_none() {
        assert_eq!(eval("self_test::never_armed"), None);
        assert!(!fail_if("self_test::never_armed"));
    }

    #[test]
    fn arm_fire_disarm_cycle() {
        let _scope = scope();
        cfg("self_test::cycle", "return").unwrap();
        assert!(fail_if("self_test::cycle"));
        assert!(list().contains(&"self_test::cycle".to_string()));
        cfg("self_test::cycle", "off").unwrap();
        assert!(!fail_if("self_test::cycle"));
    }

    #[test]
    fn a_scope_disarms_on_drop_even_when_its_test_panics() {
        let failed = std::thread::spawn(|| {
            let _scope = scope();
            cfg("self_test::leaky", "return").unwrap();
            panic!("a red test, mid-scope");
        })
        .join();
        assert!(failed.is_err());
        // The next scope waits for the unwinding one and finds nothing
        // armed.
        let _scope = scope();
        assert!(list().is_empty(), "{:?}", list());
        assert!(!fail_if("self_test::leaky"));
    }

    #[test]
    fn count_limited_entries_exhaust() {
        let _scope = scope();
        cfg("self_test::twice", "2*return").unwrap();
        assert!(fail_if("self_test::twice"));
        assert!(fail_if("self_test::twice"));
        assert!(!fail_if("self_test::twice"), "third fire must be disarmed");
    }

    #[test]
    fn sleep_blocks_the_caller() {
        let _scope = scope();
        cfg("self_test::nap", "sleep(30)").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(eval("self_test::nap"), Some(Action::Sleep(30)));
        assert!(start.elapsed() >= std::time::Duration::from_millis(25));
    }

    #[test]
    fn specs_parse_and_reject() {
        let _scope = scope();
        cfg("self_test::p", "panic").unwrap();
        assert_eq!(eval("self_test::p"), Some(Action::Panic));
        cfg("self_test::p", "off").unwrap();
        assert_eq!(eval("self_test::p"), None);
        assert!(cfg("self_test::bad", "explode").is_err());
        assert!(cfg("self_test::bad", "x*panic").is_err());
        assert!(cfg("self_test::bad", "sleep(soon)").is_err());
        assert!(!list().contains(&"self_test::bad".to_string()));
    }
}
