//! End-to-end checks on the perf-regression suite: the smoke suite
//! produces the same 25 bench keys on every run (deterministic report
//! shape) with unique keys, the three hom(P8, G) workloads agree on
//! their count, the report roundtrips through the JSON loader, and the
//! diff gate fires exactly when a median is synthetically inflated.

use x2v_bench::suite::{
    diff_reports, parse_report, report_json, run_suite, SuiteConfig, BENCH_SCHEMA,
};

#[test]
fn smoke_suite_has_stable_shape_and_gates_on_inflation() {
    let cfg = SuiteConfig::smoke();

    let first = run_suite(&cfg);
    let second = run_suite(&cfg);

    // 25 keys, the same each run, none of them a retired duplicate.
    let keys = |rs: &[x2v_bench::suite::BenchResult]| rs.iter().map(|r| r.name).collect::<Vec<_>>();
    assert_eq!(first.len(), 25, "keys: {:?}", keys(&first));
    assert_eq!(keys(&first), keys(&second), "bench keys must be stable");
    for retired in [
        "wl/refine_1wl",
        "wl/kwl_2",
        "hom/brute",
        "hom/decomp",
        "kernel/gram_feat",
    ] {
        assert!(!keys(&first).contains(&retired), "{retired} is retired");
    }
    let unique: std::collections::BTreeSet<&str> = keys(&first).into_iter().collect();
    assert_eq!(unique.len(), first.len(), "bench keys must be unique");
    let subsystems: std::collections::BTreeSet<&str> = first
        .iter()
        .map(|r| r.name.split('/').next().unwrap())
        .collect();
    assert!(
        subsystems.len() >= 5,
        "benches must span distinct subsystems: {subsystems:?}"
    );

    // Work checksums are deterministic across whole suite runs, not just
    // reps within one run.
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.work, b.work, "{} output changed between runs", a.name);
    }

    // Oracle check: three algorithms, one hom(P8, G).
    let work_of = |name: &str| first.iter().find(|r| r.name == name).unwrap().work;
    let brute = work_of("hom/p8_brute");
    for fast in ["hom/p8_tree_dp", "hom/p8_walk"] {
        assert_eq!(work_of(fast), brute, "{fast} disagrees with hom/p8_brute");
    }

    // Roundtrip: serialise, parse back, keys and medians survive.
    let json = report_json(&first, &cfg);
    let loaded = parse_report(&json).expect("generated report must parse");
    assert_eq!(loaded.schema, BENCH_SCHEMA);
    assert_eq!(loaded.mode, "smoke");
    assert_eq!(loaded.benches.len(), first.len());
    for r in &first {
        assert_eq!(
            loaded.benches[r.name].median_ns, r.median_ns as f64,
            "median for {} must roundtrip",
            r.name
        );
    }

    // Self-diff is clean.
    let self_diff = diff_reports(&loaded, &loaded, 20.0);
    assert!(
        !self_diff.failed(),
        "a report must never regress against itself"
    );

    // Inflating one median x10 (beyond threshold and noise floor) gates.
    let mut inflated = loaded.clone();
    let victim = first[0].name.to_string();
    let entry = inflated.benches.get_mut(&victim).unwrap();
    entry.median_ns *= 10.0;
    let diff = diff_reports(&loaded, &inflated, 20.0);
    assert!(diff.failed(), "x10 inflation must gate");
    assert_eq!(diff.regressions.len(), 1);
    assert_eq!(diff.regressions[0].name, victim);

    // The same comparison reversed is an improvement, which never gates.
    let rev = diff_reports(&inflated, &loaded, 20.0);
    assert!(!rev.failed());
    assert_eq!(rev.improvements.len(), 1);
}
