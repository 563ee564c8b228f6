//! E12 (Section 3.3, CFI graphs \[24\]): the WL hierarchy is strict — CFI
//! pairs over bases of growing treewidth defeat k-WL for growing k, while
//! remaining genuinely non-isomorphic.

use x2v_bench::harness::{print_header, print_row};
use x2v_graph::cfi::cfi_pair;
use x2v_graph::generators::{complete, cycle};
use x2v_graph::iso::are_isomorphic;
use x2v_wl::kwl::KwlRefiner;
use x2v_wl::Refiner;

fn main() {
    let _obs = x2v_bench::ObsRun::new("exp_cfi_kwl");
    println!("E12 — CFI graphs vs the WL hierarchy\n");
    let bases: Vec<(&str, x2v_graph::Graph, usize)> =
        vec![("C5 (tw 2)", cycle(5), 2), ("K4 (tw 3)", complete(4), 3)];
    let widths = [12, 8, 14, 10, 10, 10];
    print_header(
        &["base", "|CFI|", "isomorphic?", "1-WL", "2-WL", "3-WL"],
        &widths,
    );
    for (name, base, tw) in &bases {
        let (g, h) = cfi_pair(base);
        let iso = are_isomorphic(&g, &h);
        let d1 = Refiner::new().distinguishes(&g, &h);
        let d2 = KwlRefiner::new(2).distinguishes(&g, &h);
        let d3 = if g.order() <= 40 {
            Some(KwlRefiner::new(3).distinguishes(&g, &h))
        } else {
            None
        };
        print_row(
            &[
                name.to_string(),
                g.order().to_string(),
                iso.to_string(),
                if d1 { "splits" } else { "fooled" }.into(),
                if d2 { "splits" } else { "fooled" }.into(),
                d3.map_or("-".into(), |d| {
                    if d {
                        "splits".to_string()
                    } else {
                        "fooled".to_string()
                    }
                }),
            ],
            &widths,
        );
        assert!(!iso, "CFI pairs are non-isomorphic");
        assert!(!d1, "1-WL never separates a CFI pair");
        // k-WL fails iff tw(base) > k:
        assert_eq!(d2, *tw <= 2, "{name}");
        if let Some(d3) = d3 {
            assert_eq!(d3, *tw <= 3, "{name}");
        }
    }
    println!("\npaper: for every k there are non-isomorphic pairs k-WL cannot");
    println!("distinguish ([24]); base treewidth controls where each pair falls.");
}
