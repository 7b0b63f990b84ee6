//! Concurrent re-entrancy of the profiling API: `profile_with` /
//! `try_profile_with` hold no global state, so many threads can profile at
//! once — same workload or different workloads — without interfering. The
//! profiling server leans on exactly this; these tests pin it down at the
//! library layer.

use polyprof_core::{try_profile_with, MetricsLevel, ProfileConfig, ResourceBudget};
use std::sync::Arc;
use std::time::Duration;

/// Many threads profiling the *same* program concurrently must each get a
/// result byte-identical to a lone run — no shared-state bleed between
/// sessions.
#[test]
fn concurrent_same_program_runs_are_isolated() {
    let prog = Arc::new(rodinia::paper_examples::fig6_kernel(16, 8));
    let truth = try_profile_with(&prog, &ProfileConfig::new().with_canonical(true))
        .unwrap()
        .canonical_ddg
        .unwrap();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let prog = Arc::clone(&prog);
            std::thread::spawn(move || {
                try_profile_with(&prog, &ProfileConfig::new().with_canonical(true))
                    .unwrap()
                    .canonical_ddg
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), truth);
    }
}

/// Mixed workloads, mixed configurations (plain, budgeted, metered) in
/// flight at once: each session's folded stats must match its own direct
/// run, and each metered session's metrics must describe *its* run only.
#[test]
fn concurrent_mixed_configs_do_not_interfere() {
    let backprop = Arc::new(rodinia::backprop::build().program);
    let fig6 = Arc::new(rodinia::paper_examples::fig6_kernel(16, 8));
    let direct_bp = try_profile_with(&backprop, &ProfileConfig::new()).unwrap();
    let direct_f6 = try_profile_with(&fig6, &ProfileConfig::new()).unwrap();

    let mut handles = Vec::new();
    for i in 0..6 {
        let (prog, expect) = if i % 2 == 0 {
            (Arc::clone(&backprop), direct_bp.folded_stats)
        } else {
            (Arc::clone(&fig6), direct_f6.folded_stats)
        };
        handles.push(std::thread::spawn(move || {
            let cfg = match i % 3 {
                0 => ProfileConfig::new(),
                1 => ProfileConfig::new().with_memory_budget(1 << 40),
                _ => ProfileConfig::new().with_metrics(MetricsLevel::Counters),
            };
            let r = try_profile_with(&prog, &cfg).unwrap();
            assert_eq!(r.folded_stats, expect, "session {i} diverged");
            if let Some(m) = &r.metrics {
                // A collector shared across sessions would double-count.
                assert_eq!(
                    m.counter(polytrace::Counter::DynOps),
                    expect.2,
                    "session {i} metrics bled"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// An externally-shared budget can cancel one session from another thread;
/// the cancelled session finalizes a partial (deadline-degraded) report
/// while an unrelated concurrent session is untouched.
#[test]
fn shared_budget_cancels_one_session_without_touching_others() {
    let prog = Arc::new(rodinia::backprop::build().program);
    let budget = Arc::new(ResourceBudget::new(None, Some(Duration::from_secs(60))));

    let victim = {
        let prog = Arc::clone(&prog);
        let budget = Arc::clone(&budget);
        std::thread::spawn(move || {
            try_profile_with(&prog, &ProfileConfig::new().with_shared_budget(budget)).unwrap()
        })
    };
    let bystander = {
        let prog = Arc::clone(&prog);
        std::thread::spawn(move || try_profile_with(&prog, &ProfileConfig::new()).unwrap())
    };
    // Cancel immediately: the victim's VM polls the latch and stops
    // gracefully, well before the 60s deadline.
    budget.cancel();
    let victim = victim.join().unwrap();
    let bystander = bystander.join().unwrap();
    assert!(
        victim.degradation.deadline_hit,
        "cancel must read as a deadline stop"
    );
    assert!(
        !bystander.degradation.is_degraded(),
        "unrelated session must stay clean"
    );
}
