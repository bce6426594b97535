//! Deterministic fault injection.
//!
//! A *failpoint* is a named site planted in I/O, checkpoint, and sampling
//! paths with the [`failpoint!`](crate::failpoint!) /
//! [`failpoint_crash!`](crate::failpoint_crash!) macros. Sites compile to
//! nothing in release builds (`cfg(debug_assertions)`), so production hot
//! loops carry no branch; in debug builds every site consults a registry
//! seeded from the `SOI_FAILPOINTS` environment variable, letting tests
//! prove crash-then-resume behavior by running the real binary with a
//! fault armed and comparing the resumed output byte-for-byte against an
//! uninterrupted run.
//!
//! Spec syntax (comma-separated):
//!
//! ```text
//! SOI_FAILPOINTS="ckpt.write.tmp=exit(41)@2,graph.io.read=error"
//! ```
//!
//! * `site=error`     — the site returns a typed [`Fault`] (converted into
//!   the enclosing function's error type) on **every** hit;
//! * `site=panic`     — the site panics;
//! * `site=exit(N)`   — the process exits with status `N` (a simulated
//!   crash; no destructors, no flushing);
//! * `…@K`            — the action fires only on the `K`-th hit of the
//!   site (1-based), making multi-pass pipelines addressable
//!   deterministically.
//!
//! The registry is process-global. Tests running in-process use
//! [`install`]/[`clear`]; subprocess tests set the environment variable.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

/// Environment variable holding the failpoint spec.
pub const ENV_VAR: &str = "SOI_FAILPOINTS";

/// The canonical list of failpoint sites planted in the workspace, for
/// the fault-injection test matrix (each site is fired once by CI).
/// A unit test holds it to docs/ROBUSTNESS.md's catalog, which the xtask
/// `failpoint_catalog` pass holds to the `failpoint!` call sites; the
/// crash-resume integration tests iterate this list.
pub const SITES: &[&str] = &[
    "graph.io.read",
    "ckpt.write.tmp",
    "ckpt.write.rename",
    "engine.block",
    "greedy.round",
    "cli.spheres.write",
    // Server-side sites: exercised by the serve-chaos subprocess matrix
    // (crates/cli/tests/serve_chaos.rs), not by the crash-resume matrix
    // (those sites crash mid-pipeline and resume from a checkpoint;
    // these crash mid-request and the daemon must keep serving).
    "server.worker.dispatch",
    "server.index.build",
    "server.cache.insert",
    "server.response.write",
    // Forced-slow marker: makes the slow-query log record the next
    // request regardless of its tick cost (checked by SlowLog, never
    // crashes), so tests can pin the log format on a fast request.
    "server.request.slow",
    // Sketch-backend sites: `sketch.build.block` fires between world
    // blocks in the resumable sketch build (crash-resume style);
    // `server.sketch.build` fires on the engine's sketch-build path and
    // is exercised by the serve-chaos matrix.
    "sketch.build.block",
    "server.sketch.build",
    // Router-side sites: exercised by the route-chaos fabric matrix
    // (crates/cli/tests/route_chaos.rs). `forward.write` fires on the
    // router→shard hop (failover path), `response.write` on the
    // router→client hop (client retry path).
    "router.forward.write",
    "router.response.write",
    // Fires before the override table is persisted after a rebalance;
    // the rebalance itself must still succeed (persistence is
    // best-effort, surfaced via `router.override_persist_errors`).
    "router.overrides.persist",
    // Fires before a fuzz replay file is parsed, so the differential
    // harness's own I/O error path stays typed and testable.
    "verify.replay.read",
];

/// What an armed failpoint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Return a typed [`Fault`] from the enclosing function.
    Error,
    /// Panic with the site name.
    Panic,
    /// Exit the process with this status (simulated crash).
    Exit(i32),
}

/// A typed injected fault, convertible into the workspace error types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The site that fired.
    pub site: String,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

impl std::error::Error for Fault {}

impl From<Fault> for std::io::Error {
    fn from(fault: Fault) -> Self {
        std::io::Error::other(fault.to_string())
    }
}

#[derive(Clone, Debug)]
struct Armed {
    action: Action,
    /// 1-based hit on which to fire; `None` fires on every hit.
    at_hit: Option<u64>,
    hits: u64,
}

/// `None` means "not yet initialized from the environment".
static REGISTRY: Mutex<Option<BTreeMap<String, Armed>>> = Mutex::new(None);

/// Parses a failpoint spec. Returns the armed map or a description of the
/// first malformed entry.
fn parse_spec(spec: &str) -> Result<BTreeMap<String, Armed>, String> {
    let mut map = BTreeMap::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry {entry:?}: expected site=action"))?;
        let (action_str, at_hit) = match rhs.rsplit_once('@') {
            Some((a, k)) => {
                let k: u64 = k
                    .parse()
                    .map_err(|e| format!("failpoint entry {entry:?}: bad hit count: {e}"))?;
                if k == 0 {
                    return Err(format!("failpoint entry {entry:?}: hit count is 1-based"));
                }
                (a, Some(k))
            }
            None => (rhs, None),
        };
        let action = if action_str == "error" {
            Action::Error
        } else if action_str == "panic" {
            Action::Panic
        } else if let Some(code) = action_str
            .strip_prefix("exit(")
            .and_then(|s| s.strip_suffix(')'))
        {
            Action::Exit(
                code.parse()
                    .map_err(|e| format!("failpoint entry {entry:?}: bad exit code: {e}"))?,
            )
        } else {
            return Err(format!(
                "failpoint entry {entry:?}: unknown action {action_str:?} \
                 (error|panic|exit(N), optional @K)"
            ));
        };
        map.insert(
            site.trim().to_string(),
            Armed {
                action,
                at_hit,
                hits: 0,
            },
        );
    }
    Ok(map)
}

/// Installs a spec programmatically (replacing any previous state,
/// including environment-derived state). Intended for in-process tests.
pub fn install(spec: &str) -> Result<(), String> {
    let map = parse_spec(spec)?;
    // A poisoned registry only ever holds test state. xtask-allow: panic_policy
    *REGISTRY.lock().expect("failpoint registry poisoned") = Some(map);
    Ok(())
}

/// Disarms every failpoint (and suppresses environment re-initialization).
pub fn clear() {
    // A poisoned registry only ever holds test state. xtask-allow: panic_policy
    *REGISTRY.lock().expect("failpoint registry poisoned") = Some(BTreeMap::new());
}

/// Evaluates a site hit. Returns `Some(Fault)` when an `error` action
/// fires; `panic`/`exit` actions do not return. Disarmed sites and
/// release builds cost nothing (the macros compile the call out).
pub fn trigger(site: &str) -> Option<Fault> {
    // Every site hit is also a schedule-perturbation point (before the
    // registry lock, so an injected yield/sleep never holds it).
    crate::schedule::perturb(site);
    // A poisoned registry only ever holds test state. xtask-allow: panic_policy
    let mut guard = REGISTRY.lock().expect("failpoint registry poisoned");
    let map = guard.get_or_insert_with(|| {
        std::env::var(ENV_VAR)
            .ok()
            .and_then(|spec| match parse_spec(&spec) {
                Ok(map) => Some(map),
                Err(e) => {
                    // Arming mistakes must be loud: a silently ignored
                    // spec would "pass" every fault-injection test.
                    // soi-util sits below soi-obs, so stderr is the only
                    // channel available here; an unwritable one must not
                    // break the run.
                    let _ = writeln!(std::io::stderr().lock(), "warning: ignoring {ENV_VAR}: {e}");
                    None
                }
            })
            .unwrap_or_default()
    });
    let armed = map.get_mut(site)?;
    armed.hits += 1;
    let fire = match armed.at_hit {
        Some(k) => armed.hits == k,
        None => true,
    };
    if !fire {
        return None;
    }
    let action = armed.action;
    drop(guard); // do not hold the lock while panicking/exiting
    match action {
        Action::Error => Some(Fault {
            site: site.to_string(),
        }),
        // Panicking is this action's contract: tests arm it on purpose
        // to prove unwind safety. xtask-allow: panic_policy
        Action::Panic => panic!("failpoint {site} fired (panic)"),
        Action::Exit(code) => std::process::exit(code),
    }
}

/// Plants a failpoint in a function returning `Result<_, E>` where
/// `E: From<soi_util::failpoint::Fault>`. Compiles to nothing in release
/// builds. An armed `error` action returns `Err` from the enclosing
/// function; `panic`/`exit` actions take effect at the site.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {{
        #[cfg(debug_assertions)]
        {
            if let Some(fault) = $crate::failpoint::trigger($site) {
                return Err(fault.into());
            }
        }
    }};
}

/// Plants a crash-only failpoint (for sites without a `Result` return
/// path): `panic`/`exit` actions take effect, an `error` action is
/// ignored. Compiles to nothing in release builds.
#[macro_export]
macro_rules! failpoint_crash {
    ($site:expr) => {{
        #[cfg(debug_assertions)]
        {
            let _ = $crate::failpoint::trigger($site);
        }
    }};
}

/// Serializes tests that arm the process-global registry: every test that
/// calls [`install`]/[`clear`] (in this crate or a dependent one) must
/// hold this guard so concurrently running tests don't disarm each other.
/// Recovers from poisoning, since some failpoint actions panic on purpose.
#[doc(hidden)]
pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    /// [`SITES`] is the catalog in docs/ROBUSTNESS.md, in its order: the
    /// xtask `failpoint_catalog` pass holds that table to the planted
    /// call sites, so a site planted later cannot drop out of the
    /// crash matrix that iterates this list.
    #[test]
    fn sites_are_the_documented_catalog() {
        let doc = include_str!("../../../docs/ROBUSTNESS.md");
        let catalog: Vec<&str> = doc
            .lines()
            .skip_while(|l| !l.contains("failpoint-catalog:begin"))
            .take_while(|l| !l.contains("failpoint-catalog:end"))
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        assert_eq!(catalog, SITES);
    }

    #[test]
    fn disarmed_sites_do_nothing() {
        let _g = locked();
        clear();
        assert_eq!(trigger("nope"), None);
    }

    #[test]
    fn error_action_fires_every_hit() {
        let _g = locked();
        install("a.b=error").unwrap();
        assert!(trigger("a.b").is_some());
        assert!(trigger("a.b").is_some());
        assert_eq!(trigger("other"), None);
        clear();
    }

    #[test]
    fn at_hit_fires_exactly_once_on_the_kth_hit() {
        let _g = locked();
        install("s=error@3").unwrap();
        assert_eq!(trigger("s"), None);
        assert_eq!(trigger("s"), None);
        assert_eq!(
            trigger("s"),
            Some(Fault {
                site: "s".to_string()
            })
        );
        assert_eq!(trigger("s"), None, "fires only on hit 3");
        clear();
    }

    #[test]
    fn spec_parsing_accepts_the_documented_grammar() {
        let map = parse_spec("a=error, b=exit(41)@2 ,c=panic").unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map["a"].action, Action::Error);
        assert_eq!(map["b"].action, Action::Exit(41));
        assert_eq!(map["b"].at_hit, Some(2));
        assert_eq!(map["c"].action, Action::Panic);
        assert!(parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn spec_parsing_rejects_malformed_entries() {
        assert!(parse_spec("no-equals").is_err());
        assert!(parse_spec("a=frobnicate").is_err());
        assert!(parse_spec("a=exit(x)").is_err());
        assert!(parse_spec("a=error@0").is_err());
        assert!(parse_spec("a=error@x").is_err());
    }

    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    #[test]
    fn macro_returns_typed_error_through_io_result() {
        let _g = locked();
        install("io.site=error").unwrap();
        fn f() -> std::io::Result<u32> {
            crate::failpoint!("io.site");
            Ok(1)
        }
        let err = f().unwrap_err();
        assert!(err.to_string().contains("io.site"), "{err}");
        clear();
        assert_eq!(f().ok(), Some(1));
    }

    #[test]
    #[should_panic(expected = "failpoint boom fired")]
    fn panic_action_panics() {
        // Holds TEST_LOCK across the panic; `locked()` recovers from the
        // resulting poison for subsequent tests.
        let _g = locked();
        install("boom=panic").unwrap();
        let _ = trigger("boom");
    }

    #[test]
    fn crash_macro_swallows_error_action() {
        let _g = locked();
        install("soft=error").unwrap();
        fn f() -> u32 {
            crate::failpoint_crash!("soft");
            7
        }
        assert_eq!(f(), 7);
        clear();
    }
}
