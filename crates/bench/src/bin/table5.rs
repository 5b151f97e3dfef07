//! Regenerates Table V of the paper: per-module LoC and analysis time.
//!
//! ```sh
//! cargo run --release -p bench --bin table5
//! ```
//!
//! Absolute times depend on the host (the paper used Clang 7 on an Intel
//! NUC). The paper's *shape* is that Kmeans is the slowest by a wide
//! margin: its data-dependent branching drives path exploration. This
//! engine merges those branches where `nearest_centroid` returns
//! (DESIGN.md "Call-return merging"), so Kmeans runs as one path here; the
//! extra `KmeansEntryBranching` row has the branch written into the entry
//! function, where nothing merges, and shows the per-path cost the paper
//! measured. The shape check compares that row.

use std::time::Instant;

use privacyscope::{Analyzer, AnalyzerOptions};

fn main() {
    println!("TABLE V: Performance evaluation");
    println!();
    println!("Open Source ML Code | Size (LoCs) | Execution Time (sec.)");
    println!("--------------------+-------------+----------------------");
    let mut rows = Vec::new();
    let forking = mlcorpus::kmeans::entry_branching();
    for module in mlcorpus::modules().into_iter().chain([forking.clone()]) {
        let options = AnalyzerOptions {
            max_paths: 64,
            ..AnalyzerOptions::default()
        };
        let analyzer =
            Analyzer::from_sources(module.source, module.edl, options).expect("module builds");
        let started = Instant::now();
        let report = analyzer.analyze(module.entry).expect("module analyzes");
        let secs = started.elapsed().as_secs_f64();
        println!(
            "{:19} | {:11} | {secs:.3}s ({} paths{})",
            module.name,
            report.stats.loc,
            report.stats.paths,
            if report.stats.exhausted {
                ", budget-cut"
            } else {
                ""
            }
        );
        rows.push((module.name, report.stats.loc, secs, report.findings.len()));
    }
    println!();
    println!("paper reported:      LinearRegression 161 LoC / 2.549s,");
    println!("                     Kmeans 179 LoC / 4.654s,");
    println!("                     Recommender 117 LoC / 1.758s");
    let kmeans = rows
        .iter()
        .find(|r| r.0 == forking.name)
        .expect("forking kmeans row");
    let slowest = rows
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("rows");
    println!();
    println!(
        "shape check: slowest module is {} ({}; paper: Kmeans, explored per path)",
        slowest.0,
        if slowest.0 == kmeans.0 {
            "matches"
        } else {
            "DIFFERS"
        }
    );
}
