#![deny(missing_docs)]

//! Named-site fault injection for crash-safety testing.
//!
//! Production code marks the places where a crash would be interesting —
//! a section flush in the store writer, a worker loop iteration in the
//! mining engine — with a **failpoint site**: a call to [`io`] or
//! [`trigger`] naming an entry of the static [`SITES`] catalogue. A test
//! (or an operator running a chaos drill) then arms sites with an
//! *action*:
//!
//! ```text
//! FAILPOINTS='store::section_flush=io_err@2;engine::worker=panic@40'
//! ```
//!
//! arms the second flush of the section writer to fail with an injected
//! [`std::io::Error`] and the 40th engine worker loop iteration to panic.
//! The grammar is `site=action[@n]` entries separated by `;`, where
//! `action` is `io_err`, `panic`, `drop`, `garble`, or `delay@ms` and the
//! optional trailing `@n` (1-based) fires the action only on the n-th
//! evaluation of that site instead of every evaluation. `delay` carries
//! its millisecond argument first, so `delay@250@3` sleeps 250 ms on the
//! third evaluation only; a range `delay@1000..1500` sleeps a duration
//! drawn uniformly from those bounds (inclusive) each time it fires.
//!
//! # Network fault actions
//!
//! The `drop`, `garble` and `delay@ms` actions model *network* failure at
//! sites evaluated through [`net`] (the shared HTTP layer on both ends):
//! `delay` simulates a slow link, `drop` an accept-then-close peer or a
//! partition, and `garble` a torn response (truncated + corrupted bytes).
//! At an [`io`] site, `delay` sleeps then succeeds while `drop`/`garble`
//! degrade to the injected I/O error; at a [`net`] site, `io_err`
//! degrades to `Drop`. `panic` panics everywhere.
//!
//! # Cost when disabled
//!
//! When no site is armed — the production steady state — every failpoint
//! evaluation is **one relaxed atomic load and a predictable branch**:
//! no lock, no lookup, no allocation. The workspace-root `tests/alloc.rs`
//! counts allocations through an instrumented global allocator with this
//! crate linked in and asserts the zero-allocation mining paths stay at
//! exactly zero.
//!
//! # Observability
//!
//! Every fired fault increments a per-site counter. Call
//! [`register_metrics`] to mirror those counters into a
//! [`MetricsRegistry`] as `regcluster_failpoints_fired_total{site=…}`,
//! so a chaos drill shows up on the same `/metrics` endpoint operators
//! already scrape (`docs/OBSERVABILITY.md`).
//!
//! # Scope
//!
//! The armed configuration is process-global (that is the point — the
//! code under test must not know it is being sabotaged), so tests that
//! call [`configure`] must serialize themselves and [`clear`] on exit.
//! The full site catalogue with the failure each site simulates is
//! documented in `docs/ROBUSTNESS.md`, kept in sync by a drift test.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use regcluster_obs::{Counter, MetricsRegistry};

/// Every failpoint site the workspace instruments, in catalogue order.
///
/// [`configure`] rejects names outside this list, so a typo in a chaos
/// spec fails loudly instead of silently arming nothing. The docs-drift
/// test iterates this list against `docs/ROBUSTNESS.md`.
pub const SITES: &[&str] = &[
    "store::record_write",
    "store::section_flush",
    "store::seal_header",
    "store::fsync_file",
    "store::rename",
    "store::dir_sync",
    "store::current_publish",
    "store::merge_seal",
    "checkpoint::save",
    "engine::worker",
    "cluster::lease_grant",
    "cluster::shard_upload",
    "cluster::publish",
    "cluster::journal_append",
    "cluster::http_request",
    "cluster::http_response",
    "cluster::upload_response",
    "cluster::lease_hold",
    "serve::http_response",
];

/// Metric family name under which fired-fault counters are exported.
pub const FIRED_METRIC: &str = "regcluster_failpoints_fired_total";

/// Environment variable read by [`init_from_env`].
pub const ENV_VAR: &str = "FAILPOINTS";

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The site returns an injected [`std::io::Error`] (kind `Other`).
    IoErr,
    /// The site panics, simulating a crashed worker thread.
    Panic,
    /// The site sleeps between `min_ms` and `max_ms` milliseconds
    /// (inclusive, uniform; equal bounds sleep exactly that long), then
    /// proceeds — a slow link or an overloaded peer.
    Delay {
        /// Shortest sleep.
        min_ms: u64,
        /// Longest sleep.
        max_ms: u64,
    },
    /// A [`net`] site closes the connection without answering
    /// (accept-then-close / partition); an [`io`] site degrades this to
    /// the injected error.
    Drop,
    /// A [`net`] site truncates and corrupts the bytes it was about to
    /// send (a torn response); an [`io`] site degrades this to the
    /// injected error.
    Garble,
}

/// What a [`net`]-evaluated site tells the networking code to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Proceed normally (any armed `delay` has already been slept).
    Pass,
    /// Close the connection without sending anything.
    Drop,
    /// Send a truncated, corrupted version of the payload, then close.
    Garble,
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    action: Action,
    /// 1-based evaluation ordinal on which to fire; `None` = every time.
    fire_at: Option<u64>,
}

const N_SITES: usize = 19;
const _: () = assert!(SITES.len() == N_SITES, "keep N_SITES in sync with SITES");

/// Fast-path gate: false (the default) means every site is a
/// branch-on-relaxed-load no-op.
static ACTIVE: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
/// Evaluations per site while armed (drives `@n` ordinals).
static HITS: [AtomicU64; N_SITES] = [ZERO; N_SITES];
/// Faults actually fired per site.
static FIRED: [AtomicU64; N_SITES] = [ZERO; N_SITES];

/// Armed actions per site plus the obs-registry mirror handles.
/// Locked only on the slow path (armed process) and at (re)configuration.
static CONFIG: Mutex<Option<[Option<Armed>; N_SITES]>> = Mutex::new(None);
static MIRRORS: Mutex<Vec<[Counter; N_SITES]>> = Mutex::new(Vec::new());

fn site_index(site: &str) -> Option<usize> {
    SITES.iter().position(|&s| s == site)
}

/// Parses and arms a failpoint spec (`site=action[@n]` entries separated
/// by `;`), replacing any previous configuration and resetting the
/// per-site evaluation ordinals. An empty spec disarms everything, like
/// [`clear`].
///
/// # Errors
///
/// A description of the first malformed entry: unknown site name, unknown
/// action, or an unparsable `@n` ordinal.
pub fn configure(spec: &str) -> Result<(), String> {
    let mut armed: [Option<Armed>; N_SITES] = [None; N_SITES];
    let mut any = false;
    for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry {entry:?}: expected site=action[@n]"))?;
        let idx = site_index(site.trim()).ok_or_else(|| {
            format!(
                "unknown failpoint site {:?}; known sites: {}",
                site.trim(),
                SITES.join(", ")
            )
        })?;
        let mut at_parts = rest.split('@').map(str::trim);
        let name = at_parts.next().unwrap_or_default();
        let parse_ordinal = |n: &str| -> Result<u64, String> {
            let v: u64 = n
                .parse()
                .map_err(|_| format!("failpoint entry {entry:?}: bad ordinal {n:?}"))?;
            if v == 0 {
                return Err(format!("failpoint entry {entry:?}: ordinal is 1-based"));
            }
            Ok(v)
        };
        let action = match name {
            "io_err" => Action::IoErr,
            "panic" => Action::Panic,
            "drop" => Action::Drop,
            "garble" => Action::Garble,
            "delay" => {
                let ms = at_parts.next().ok_or_else(|| {
                    format!(
                        "failpoint entry {entry:?}: delay needs a millisecond argument (delay@ms)"
                    )
                })?;
                let parse_ms = |v: &str| -> Result<u64, String> {
                    v.trim().parse().map_err(|_| {
                        format!("failpoint entry {entry:?}: bad delay milliseconds {ms:?}")
                    })
                };
                let (min_ms, max_ms) = match ms.split_once("..") {
                    Some((lo, hi)) => (parse_ms(lo)?, parse_ms(hi)?),
                    None => (parse_ms(ms)?, parse_ms(ms)?),
                };
                if min_ms > max_ms {
                    return Err(format!(
                        "failpoint entry {entry:?}: delay range {ms:?} is empty"
                    ));
                }
                Action::Delay { min_ms, max_ms }
            }
            other => {
                return Err(format!(
                "unknown failpoint action {other:?}; want io_err, panic, drop, garble, or delay@ms"
            ))
            }
        };
        let ordinal = at_parts.next().map(parse_ordinal).transpose()?;
        if at_parts.next().is_some() {
            return Err(format!("failpoint entry {entry:?}: too many @-arguments"));
        }
        armed[idx] = Some(Armed {
            action,
            fire_at: ordinal,
        });
        any = true;
    }
    let mut config = lock(&CONFIG);
    for hits in &HITS {
        hits.store(0, Ordering::Relaxed);
    }
    *config = any.then_some(armed);
    // Publish the gate after the config so a racing slow path sees the
    // new actions; release pairs with the slow path's acquire reload.
    ACTIVE.store(any, Ordering::Release);
    Ok(())
}

/// Arms failpoints from the `FAILPOINTS` environment variable; a missing
/// or empty variable leaves everything disarmed. Returns whether any site
/// was armed.
///
/// # Errors
///
/// As [`configure`], for a malformed spec.
pub fn init_from_env() -> Result<bool, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) => {
            configure(&spec)?;
            Ok(ACTIVE.load(Ordering::Relaxed))
        }
        Err(_) => Ok(false),
    }
}

/// Disarms every site and resets the per-site evaluation ordinals.
/// Cumulative fired counters are kept (they are monotonic metrics).
pub fn clear() {
    let mut config = lock(&CONFIG);
    for hits in &HITS {
        hits.store(0, Ordering::Relaxed);
    }
    *config = None;
    ACTIVE.store(false, Ordering::Release);
}

/// Evaluates the failpoint at `site`, returning the injected error when
/// an `io_err` action fires. Instrument fallible I/O boundaries with
/// `failpoint::io("store::…")?`.
///
/// When nothing is armed (the production steady state) this is one
/// relaxed atomic load and a branch: no lock, no allocation.
///
/// # Errors
///
/// The injected error when `site` is armed with `io_err` (or the
/// network-shaped `drop`/`garble`, which degrade to it here) and its
/// ordinal matches. A fired `delay` sleeps, then returns `Ok`.
///
/// # Panics
///
/// When `site` is armed with `panic` and its ordinal matches.
#[inline]
pub fn io(site: &'static str) -> std::io::Result<()> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    match slow(site) {
        Some((Action::IoErr | Action::Drop | Action::Garble, hit)) => Err(std::io::Error::other(
            format!("injected failpoint error at {site} (hit {hit})"),
        )),
        Some((Action::Delay { .. }, _)) | None => Ok(()),
        Some((Action::Panic, _)) => unreachable!("slow() panics on Panic"),
    }
}

/// Evaluates the failpoint at `site` where no error can be returned —
/// only the `panic` action is observable (and `delay` sleeps); a fired
/// `io_err`/`drop`/`garble` is counted but otherwise ignored. Instrument
/// infallible hot paths (the engine worker loop) with this.
///
/// # Panics
///
/// When `site` is armed with `panic` and its ordinal matches.
#[inline]
pub fn trigger(site: &'static str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let _ = slow(site);
}

/// Evaluates the failpoint at a network boundary: the cluster HTTP layer
/// calls this just before sending bytes and acts on the returned
/// [`NetFault`]. A fired `delay` has already been slept when this
/// returns; `io_err` degrades to [`NetFault::Drop`] (the peer sees the
/// same thing: a closed connection).
///
/// # Panics
///
/// When `site` is armed with `panic` and its ordinal matches.
#[inline]
pub fn net(site: &'static str) -> NetFault {
    if !ACTIVE.load(Ordering::Relaxed) {
        return NetFault::Pass;
    }
    match slow(site) {
        Some((Action::Drop | Action::IoErr, _)) => NetFault::Drop,
        Some((Action::Garble, _)) => NetFault::Garble,
        Some((Action::Delay { .. }, _)) | None => NetFault::Pass,
        Some((Action::Panic, _)) => unreachable!("slow() panics on Panic"),
    }
}

/// Evaluates `site` against the armed table. Returns the fired action and
/// hit ordinal, after sleeping a `Delay` and panicking on `Panic`; `None`
/// when nothing fired.
#[cold]
fn slow(site: &'static str) -> Option<(Action, u64)> {
    let Some(idx) = site_index(site) else {
        // An uncatalogued site is a wiring bug; surface it in tests.
        debug_assert!(false, "failpoint site {site:?} is not in SITES");
        return None;
    };
    let armed = {
        let config = lock(&CONFIG);
        // Re-check under the lock: `clear` may have won the race.
        let table = config.as_ref()?;
        table[idx]?
    };
    let hit = HITS[idx].fetch_add(1, Ordering::Relaxed) + 1;
    if armed.fire_at.is_some_and(|n| n != hit) {
        return None;
    }
    FIRED[idx].fetch_add(1, Ordering::Relaxed);
    for mirror in lock(&MIRRORS).iter() {
        mirror[idx].inc();
    }
    match armed.action {
        Action::Panic => panic!("injected failpoint panic at {site} (hit {hit})"),
        Action::Delay { min_ms, max_ms } => {
            let ms = min_ms + draw(hit) % (max_ms - min_ms).saturating_add(1);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Some((armed.action, hit))
        }
        _ => Some((armed.action, hit)),
    }
}

/// A random draw for a ranged `delay`: std's per-process random hash
/// keys mixed with the hit ordinal, so concurrent processes armed with
/// the same range do not sleep in lockstep.
fn draw(hit: u64) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(hit);
    h.finish()
}

/// Faults fired at `site` since process start (cumulative across
/// [`configure`]/[`clear`] cycles).
///
/// # Panics
///
/// If `site` is not in [`SITES`].
pub fn fired(site: &str) -> u64 {
    let idx = site_index(site).unwrap_or_else(|| panic!("unknown failpoint site {site:?}"));
    FIRED[idx].load(Ordering::Relaxed)
}

/// Mirrors the per-site fired counters into `registry` as
/// [`FIRED_METRIC`]`{site=…}` series, seeding each with the count fired
/// so far, and keeps them updated as further faults fire.
///
/// Each call also forgets the mirrors of registries that have since
/// been dropped, so a process that registers once per run (an
/// in-process coordinator loop) keeps one mirror per live registry.
pub fn register_metrics(registry: &MetricsRegistry) {
    let counters: Vec<Counter> = SITES
        .iter()
        .enumerate()
        .map(|(idx, site)| {
            let c = registry.counter(
                FIRED_METRIC,
                "Injected faults fired per failpoint site.",
                &[("site", site)],
            );
            let already = FIRED[idx].load(Ordering::Relaxed);
            if already > c.get() {
                c.add(already - c.get());
            }
            c
        })
        .collect();
    let mirror: [Counter; N_SITES] = counters.try_into().expect("SITES.len() == N_SITES");
    let mut mirrors = lock(&MIRRORS);
    mirrors.retain(|m| !m.iter().all(Counter::is_sole_handle));
    mirrors.push(mirror);
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed configuration is process-global, so every test arming
    // sites serializes on this and clears on exit.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sites_are_silent() {
        let _guard = lock(&SERIAL);
        clear();
        for &site in SITES {
            io(site).unwrap();
            trigger(site);
        }
    }

    #[test]
    fn io_err_fires_every_time_without_ordinal() {
        let _guard = lock(&SERIAL);
        configure("store::section_flush=io_err").unwrap();
        let before = fired("store::section_flush");
        assert!(io("store::section_flush").is_err());
        assert!(io("store::section_flush").is_err());
        io("store::rename").unwrap();
        assert_eq!(fired("store::section_flush"), before + 2);
        clear();
        io("store::section_flush").unwrap();
    }

    #[test]
    fn ordinal_fires_exactly_once_at_n() {
        let _guard = lock(&SERIAL);
        configure("store::record_write=io_err@3").unwrap();
        assert!(io("store::record_write").is_ok());
        assert!(io("store::record_write").is_ok());
        assert!(io("store::record_write").is_err());
        assert!(io("store::record_write").is_ok());
        clear();
    }

    #[test]
    fn panic_action_panics_and_trigger_ignores_io_err() {
        let _guard = lock(&SERIAL);
        configure("engine::worker=panic@1;store::dir_sync=io_err").unwrap();
        trigger("store::dir_sync"); // io_err on a trigger site: counted, ignored
        let payload = std::panic::catch_unwind(|| trigger("engine::worker"))
            .expect_err("armed panic must fire");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("engine::worker"), "payload: {msg}");
        clear();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _guard = lock(&SERIAL);
        assert!(configure("nonsense").is_err());
        assert!(configure("no::such::site=io_err").is_err());
        assert!(configure("engine::worker=explode").is_err());
        assert!(configure("engine::worker=panic@zero").is_err());
        assert!(configure("engine::worker=panic@0").is_err());
        assert!(configure("cluster::http_request=delay").is_err());
        assert!(configure("cluster::http_request=delay@fast").is_err());
        assert!(configure("cluster::http_request=delay@10@2@9").is_err());
        assert!(configure("cluster::http_request=io_err@1@2").is_err());
        // A failed configure leaves nothing armed.
        for &site in SITES {
            io(site).unwrap();
        }
        clear();
    }

    #[test]
    fn net_actions_parse_and_fire() {
        let _guard = lock(&SERIAL);
        configure("cluster::http_response=drop@1;cluster::upload_response=garble").unwrap();
        assert_eq!(net("cluster::http_response"), NetFault::Drop);
        assert_eq!(net("cluster::http_response"), NetFault::Pass);
        assert_eq!(net("cluster::upload_response"), NetFault::Garble);
        assert_eq!(net("cluster::http_request"), NetFault::Pass);
        clear();
    }

    #[test]
    fn delay_sleeps_then_passes_everywhere() {
        let _guard = lock(&SERIAL);
        configure("cluster::http_request=delay@30@1").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(net("cluster::http_request"), NetFault::Pass);
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        // Ordinal 1 already consumed: no further sleeping.
        assert_eq!(net("cluster::http_request"), NetFault::Pass);
        configure("store::fsync_file=delay@1").unwrap();
        io("store::fsync_file").unwrap();
        clear();
    }

    #[test]
    fn delay_range_sleeps_within_its_bounds() {
        let _guard = lock(&SERIAL);
        configure("cluster::lease_hold=delay@20..60").unwrap();
        for _ in 0..3 {
            let start = std::time::Instant::now();
            trigger("cluster::lease_hold");
            let slept = start.elapsed();
            assert!(slept >= std::time::Duration::from_millis(20), "{slept:?}");
        }
        assert_eq!(
            lock(&CONFIG).unwrap()[site_index("cluster::lease_hold").unwrap()].map(|a| a.action),
            Some(Action::Delay {
                min_ms: 20,
                max_ms: 60
            })
        );
        assert!(configure("cluster::lease_hold=delay@60..20").is_err());
        assert!(configure("cluster::lease_hold=delay@1..x").is_err());
        assert!(configure("cluster::lease_hold=delay@..5").is_err());
        clear();
    }

    #[test]
    fn net_degrades_io_err_and_io_degrades_net_actions() {
        let _guard = lock(&SERIAL);
        configure("cluster::http_response=io_err;store::rename=garble;store::fsync_file=drop")
            .unwrap();
        assert_eq!(net("cluster::http_response"), NetFault::Drop);
        assert!(io("store::rename").is_err());
        assert!(io("store::fsync_file").is_err());
        clear();
    }

    #[test]
    fn metrics_mirror_counts_fired_faults() {
        let _guard = lock(&SERIAL);
        clear();
        let registry = MetricsRegistry::new();
        register_metrics(&registry);
        let handle = registry.counter(
            FIRED_METRIC,
            "Injected faults fired per failpoint site.",
            &[("site", "store::seal_header")],
        );
        let before = handle.get();
        configure("store::seal_header=io_err@1").unwrap();
        assert!(io("store::seal_header").is_err());
        assert_eq!(handle.get(), before + 1);
        assert_eq!(
            registry.metric_names(),
            vec![FIRED_METRIC.to_string()],
            "one family, one series per site"
        );
        clear();
    }

    #[test]
    fn dropped_registries_leave_the_mirror_list() {
        let _guard = lock(&SERIAL);
        let live = MetricsRegistry::new();
        register_metrics(&live);
        for _ in 0..1000 {
            let gone = MetricsRegistry::new();
            register_metrics(&gone);
        }
        // The last dropped registry's mirror goes at the next call.
        let also_live = MetricsRegistry::new();
        register_metrics(&also_live);
        assert!(lock(&MIRRORS).len() <= 2, "{}", lock(&MIRRORS).len());
        // The survivors still count fired faults.
        let handle = live.counter(
            FIRED_METRIC,
            "Injected faults fired per failpoint site.",
            &[("site", "store::dir_sync")],
        );
        let before = handle.get();
        configure("store::dir_sync=io_err@1").unwrap();
        assert!(io("store::dir_sync").is_err());
        assert_eq!(handle.get(), before + 1);
        clear();
    }
}
