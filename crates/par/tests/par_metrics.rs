//! Integration test in its own process: it reads the process-global
//! `par.replications` counter, which any sibling test running replications
//! or installing a sink would move under it.

use std::sync::Arc;
use svbr_par::run_replications;

#[test]
fn emits_par_metrics_when_enabled() {
    svbr_obsv::install(Arc::new(svbr_obsv::MemorySink::new()));
    let before = svbr_obsv::snapshot()
        .counter("par.replications")
        .unwrap_or(0);
    let _ = run_replications(3, 10, 2, |i, _| i);
    let after = svbr_obsv::snapshot()
        .counter("par.replications")
        .unwrap_or(0);
    assert_eq!(after - before, 10);
    svbr_obsv::uninstall();
}
