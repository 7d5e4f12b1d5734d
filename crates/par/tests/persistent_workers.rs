//! The workers behind every `TaskPool` are process-wide and persistent:
//! their number is capped at `available_parallelism`, and once a fan-out
//! has reached that cap no later `run` starts an OS thread. One test, so
//! no other test thread of this binary moves the thread count under it.

use pipefail_par::TaskPool;
use std::collections::BTreeSet;

/// The thread ids of this process.
fn threads() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .map(|entry| {
            entry
                .expect("task entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
#[cfg(target_os = "linux")]
fn workers_are_capped_and_outlive_each_fan_out() {
    let cap = std::thread::available_parallelism().map_or(1, usize::from);
    let idle = threads();
    // The warm-up is as wide as a pool can ask for, so it starts as many
    // workers as the cap allows.
    let warm = TaskPool::new(64).run(64, |i| i * i);
    assert_eq!(warm, (0..64).map(|i| i * i).collect::<Vec<_>>());
    let warmed = threads();
    let workers = warmed.difference(&idle).count();
    assert!(
        (1..=cap).contains(&workers),
        "{workers} workers for available_parallelism {cap}"
    );

    for round in 0..1000 {
        let width = 1 + round % 8;
        let got = TaskPool::new(width).run(3 + round % 29, |i| i + round);
        assert_eq!(
            got,
            (0..3 + round % 29).map(|i| i + round).collect::<Vec<_>>()
        );
    }
    assert_eq!(
        threads(),
        warmed,
        "a run after the warm-up started or lost a thread"
    );
}
