//! Fig. 18 (repo extension) — safe online tuning over the 33-day
//! production trace, checkpointed across real process boundaries.
//!
//! OnlineTune's framing (see PAPERS.md): tuning a *live* database is not
//! an offline search — every exploratory config the tuner tries is
//! applied to production traffic, so an optimizer that eventually
//! converges can still be unshippable if the path there tanks the SLO.
//! This harness scores that path. Two identical fleets run the paper's
//! 33-day production trace (132 tables, 59 GB, diurnal Fig. 8 arrival)
//! from a cold tuner start:
//!
//!   * **guarded** — the [`SafetyGovernor`] clamps every BO candidate
//!     into a learned safe region around the booted config, expanding it
//!     on clean windows and shrinking it on SLO-floor breaches;
//!   * **unguarded** — identical accounting (same baseline EWMA, same
//!     SLO floor, same regret ledger) over a region spanning the whole
//!     unit cube, so nothing is ever clamped.
//!
//! Both arms report baseline-relative cumulative regret and SLO-floor
//! breach counts; the guarded arm must come out with *zero* breaches and
//! strictly lower regret. The 33 days never fit one process politely:
//! the run is split into `--segments` real child processes, each of
//! which resumes both fleets from the shared `--resume` snapshot file,
//! advances one segment, and checkpoints back — the snapshot subsystem
//! is load-bearing infrastructure here, not a demo.
//!
//! Flags: `--days 33 --segments 3 --dbs 2 --seed 42` (defaults shown),
//! `--resume <snapshot>` to name the checkpoint file (a temp file
//! otherwise; pointing `--resume` at a half-finished state continues
//! it). `--segment-run` is the internal child-process mode and can also
//! be invoked by hand to drive one segment at a time.

use autodbaas_bench::safetune::production_arm;
use autodbaas_bench::{arg_value, header, load_fleet_pair, resume_arg, save_fleet_pair};
use autodbaas_telemetry::{outln, MILLIS_PER_HOUR};
use autodbaas_workload::TRACE_DAYS;
use std::path::{Path, PathBuf};

const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;

struct Args {
    days: u64,
    segments: u64,
    dbs: usize,
    seed: u64,
}

fn args() -> Args {
    Args {
        days: arg_value("--days")
            .map(|v| v.parse().unwrap())
            .unwrap_or(TRACE_DAYS),
        segments: arg_value("--segments")
            .map(|v| v.parse().unwrap())
            .unwrap_or(3),
        dbs: arg_value("--dbs").map(|v| v.parse().unwrap()).unwrap_or(2),
        seed: arg_value("--seed")
            .map(|v| v.parse().unwrap())
            .unwrap_or(42),
    }
}

fn day(ms: u64) -> f64 {
    ms as f64 / MILLIS_PER_DAY as f64
}

/// Child-process mode: resume both arms from the snapshot (or build them
/// fresh), advance one segment, checkpoint back, exit.
fn run_segment(path: &Path, a: &Args) {
    let total_ms = a.days * MILLIS_PER_DAY;
    let seg_ms = total_ms.div_ceil(a.segments);
    let ((mut guarded, mut unguarded), resumed) = match load_fleet_pair(path) {
        Some(pair) => (pair, true),
        None => (
            (
                production_arm(true, a.dbs, a.seed),
                production_arm(false, a.dbs, a.seed),
            ),
            false,
        ),
    };
    let from = guarded.now();
    assert!(from < total_ms, "trace already complete at {from} ms");
    let until = (from + seg_ms).min(total_ms);
    guarded.run_for(until - from);
    unguarded.run_for(until - unguarded.now());
    save_fleet_pair(path, &guarded, &unguarded);
    let gs = guarded.safety().expect("guarded governor");
    let us = unguarded.safety().expect("unguarded governor");
    outln!(
        "  segment day {:5.2} -> {:5.2} ({}): regret guarded {:>10.1} / unguarded {:>10.1}, breaches {} / {}",
        day(from),
        day(until),
        if resumed { "resumed" } else { "fresh" },
        gs.cumulative_regret(),
        us.cumulative_regret(),
        gs.total_violations(),
        us.total_violations()
    );
    outln!(
        "           worst window shortfall vs baseline: guarded {:.3} / unguarded {:.3}",
        gs.worst_shortfall(),
        us.worst_shortfall()
    );
}

/// Parent mode: spawn one real child process per segment, each resuming
/// from the shared snapshot file, then score the finished arms.
fn main() {
    let a = args();
    if std::env::args().any(|arg| arg == "--segment-run") {
        let path = resume_arg().expect("--segment-run requires --resume <snapshot>");
        run_segment(&path, &a);
        return;
    }

    header(
        "Fig. 18",
        &format!(
            "safe online tuning, {} production services per arm, {} days in {} process segments",
            a.dbs, a.days, a.segments
        ),
        "the guarded tuner finishes the trace with zero SLO-floor breaches \
         and strictly lower cumulative regret than the unguarded tuner",
    );

    let path: PathBuf = resume_arg()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("fig18_safetune_{}.snap", a.seed)));
    // A stale pair from an earlier aborted run would silently shorten this
    // one — only a user-supplied --resume is treated as state to continue.
    if resume_arg().is_none() && path.exists() {
        std::fs::remove_file(&path).expect("clear stale snapshot");
    }

    let total_ms = a.days * MILLIS_PER_DAY;
    let exe = std::env::current_exe().expect("own binary path");
    let mut spawned = 0u64;
    loop {
        let status = std::process::Command::new(&exe)
            .args([
                "--segment-run",
                "--resume",
                path.to_str().expect("utf-8 snapshot path"),
                "--days",
                &a.days.to_string(),
                "--segments",
                &a.segments.to_string(),
                "--dbs",
                &a.dbs.to_string(),
                "--seed",
                &a.seed.to_string(),
            ])
            .status()
            .expect("spawn segment process");
        assert!(status.success(), "segment process failed: {status}");
        spawned += 1;
        let (g, _) = load_fleet_pair(&path).expect("checkpoint after segment");
        if g.now() >= total_ms {
            break;
        }
        assert!(spawned <= a.segments, "segments did not advance the clock");
    }

    let (guarded, unguarded) = load_fleet_pair(&path).expect("final checkpoint");
    let pair_bytes = std::fs::metadata(&path)
        .expect("final checkpoint size")
        .len();
    std::fs::remove_file(&path).ok();
    assert_eq!(guarded.now(), total_ms);
    assert_eq!(unguarded.now(), total_ms);
    let gs = guarded.safety().expect("guarded governor");
    let us = unguarded.safety().expect("unguarded governor");
    let (g_clamps, g_breaches) = guarded.meter.safety_totals();
    let (u_clamps, u_breaches) = unguarded.meter.safety_totals();
    let (g_ph, g_lsm, g_un) = guarded.meter.backend_totals();

    outln!("\n{:<38} {:>14} {:>14}", "metric", "guarded", "unguarded");
    outln!(
        "{:<38} {:>14.1} {:>14.1}",
        "cumulative regret (objective-s)",
        gs.cumulative_regret(),
        us.cumulative_regret()
    );
    outln!(
        "{:<38} {:>14} {:>14}",
        "SLO-floor breaches",
        gs.total_violations(),
        us.total_violations()
    );
    outln!(
        "{:<38} {:>14} {:>14}",
        "candidates clamped into safe region",
        g_clamps,
        u_clamps
    );
    outln!(
        "{:<38} {:>14.3} {:>14.3}",
        "worst window shortfall vs baseline",
        gs.worst_shortfall(),
        us.worst_shortfall()
    );
    outln!("{:<38} {:>14} {:>14}", "process segments", spawned, spawned);
    outln!(
        "{:<38} {:>29}",
        "final pair-file size (bytes, both)",
        pair_bytes
    );
    outln!(
        "recommendations by backend (guarded): pageheap {g_ph}, lsm {g_lsm}, unattributed {g_un}"
    );

    assert_eq!(
        g_breaches,
        gs.total_violations(),
        "meter/ledger breach split"
    );
    assert_eq!(
        u_breaches,
        us.total_violations(),
        "meter/ledger breach split"
    );
    assert_eq!(u_clamps, 0, "the observe-only arm must never clamp");
    assert!(
        g_clamps > 0,
        "the guarded arm never clamped a candidate — the region did no work"
    );
    assert!(
        spawned >= 3.min(a.segments),
        "too few real process segments"
    );
    assert_eq!(
        gs.total_violations(),
        0,
        "guarded arm must finish the trace with zero SLO-floor breaches"
    );
    assert!(
        gs.cumulative_regret() < us.cumulative_regret(),
        "guarded regret {:.1} must undercut unguarded {:.1}",
        gs.cumulative_regret(),
        us.cumulative_regret()
    );
    outln!(
        "\nresult: the safe region held the SLO for {} days of live tuning \
         while the unguarded tuner paid {:.1}x the regret.",
        a.days,
        us.cumulative_regret() / gs.cumulative_regret().max(1e-9)
    );
}
