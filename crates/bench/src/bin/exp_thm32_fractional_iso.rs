//! E10 (Theorem 3.2, Tinhofer; \[57\]): fractional isomorphism three ways —
//! combinatorially (1-WL), by exact rational certificate, and numerically
//! by Frank-Wolfe minimisation of ‖AX − XB‖_F over the Birkhoff polytope.

use x2v_bench::harness::{pct, print_header, print_row};
use x2v_graph::generators::{circulant, cycle, path, star};
use x2v_graph::ops::disjoint_union;
use x2v_similarity::relaxed::relaxed_distance_full;
use x2v_wl::fractional::{certificate, fractionally_isomorphic, verify_certificate};

fn main() {
    let _obs = x2v_bench::ObsRun::new("exp_thm32_fractional_iso");
    println!("E10 — Theorem 3.2: fractional isomorphism <=> 1-WL-equivalence\n");
    let pairs: Vec<(&str, x2v_graph::Graph, x2v_graph::Graph)> = vec![
        ("C6 vs 2xC3", cycle(6), disjoint_union(&cycle(3), &cycle(3))),
        ("C8 vs C8(1,2)", cycle(8), circulant(8, &[1, 2])),
        ("P6 vs C6", path(6), cycle(6)),
        ("S5 vs P6", star(5), path(6)),
        (
            "C8(1,2) vs C8(1,3)",
            circulant(8, &[1, 2]),
            circulant(8, &[1, 3]),
        ),
    ];
    let widths = [20, 10, 14, 16, 12];
    print_header(
        &["pair", "1-WL eq", "certificate", "FW objective", "FW iters"],
        &widths,
    );
    for (name, g, h) in &pairs {
        let wl = fractionally_isomorphic(g, h);
        let cert = certificate(g, h);
        let cert_ok = cert
            .as_ref()
            .map(|x| verify_certificate(g, h, x))
            .unwrap_or(false);
        let fw = relaxed_distance_full(g, h);
        print_row(
            &[
                name.to_string(),
                wl.to_string(),
                if cert.is_some() {
                    format!("exact ({cert_ok})")
                } else {
                    "none".into()
                },
                format!("{:.2e}", fw.objective),
                fw.iterations.to_string(),
            ],
            &widths,
        );
        // Theorem 3.2, both directions:
        assert_eq!(wl, cert.is_some());
        assert_eq!(wl, fw.objective < 1e-6, "{name}");
        let _ = pct(0.0);
    }
    println!("\nFrank-Wolfe reaching 0 exactly on the WL-equivalent pairs is the");
    println!("[57] connection: FW iterations mirror colour-refinement rounds.");
}
