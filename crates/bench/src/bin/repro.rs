//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro all                      # everything, quick scale
//! repro tab8 fig1                # specific artifacts
//! repro all --scale paper        # full-scale run (minutes)
//! repro all --scale faults       # quick scale under the demo fault plan
//! repro all --scale nat64        # quick scale with NAT64/DNS64/464XLAT vantages
//! repro all --scale panel        # 200 generated vantage points, disagreement section
//! repro all --seed 7 --json out.json
//! repro all --fault-plan plan.json --checkpoint-dir ckpt/
//! repro all --metrics BENCH.json --baseline BENCH_baseline.json
//! repro all --sequential           # reference pipeline, for byte-comparison
//! repro sweep sweep.json --store out/ --procs 4   # supervised study sweep
//! ```

use ipv6web_bench::{
    check_regression, render_diff, validate_output_dir, validate_output_file, write_output,
    BenchReport, OutputError, Scale, DEFAULT_TOLERANCE,
};
use ipv6web_core::{run_study_mode, ExecutionMode};
use ipv6web_faults::FaultPlan;
use std::path::Path;

const ARTIFACTS: &[&str] = &[
    "fig1", "fig3a", "fig3b", "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "tab8",
    "tab9", "tab10", "tab11", "tab12", "tab13", "verdicts", "compare",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro <artifact...|all> [--scale quick|paper|faults|internet|internet-smoke|nat64|panel]\n\
         \x20            [--seed N] [--json FILE]\n\
         \x20            [--csv DIR] [--fault-plan FILE] [--checkpoint-dir DIR]\n\
         \x20            [--metrics FILE] [--baseline FILE] [--sequential]\n\
         \x20      repro sweep <sweep.json> --store DIR [--procs N] [--metrics FILE]\n\
         artifacts: {}",
        ARTIFACTS.join(" ")
    );
    std::process::exit(2)
}

/// Reports an output path or write error and exits 2.
fn output_failure(e: OutputError) -> ! {
    eprintln!("repro: {e}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    // `repro sweep …` hands the rest of the line to the sweep CLI before
    // any artifact parsing. The `["sweep"]` prefix makes worker
    // self-invocations (`current_exe()`) route back through this arm.
    if args[0] == "sweep" {
        std::process::exit(ipv6web_sweep::cli::cli_main(&args[1..], &["sweep"]));
    }
    let mut wanted: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut json_out: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut fault_plan_path: Option<String> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut mode = ExecutionMode::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!(
                        "repro: unknown scale `{v}` \
                         (expected quick, paper, faults, internet, internet-smoke, nat64, or panel)"
                    );
                    usage()
                });
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--json" => {
                json_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--metrics" => {
                metrics_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--baseline" => {
                baseline_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--fault-plan" => {
                fault_plan_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--sequential" => {
                mode = ExecutionMode::Sequential;
            }
            "all" => wanted.extend(ARTIFACTS.iter().map(|s| s.to_string())),
            other if ARTIFACTS.contains(&other) => wanted.push(other.to_string()),
            _ => usage(),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    wanted.dedup();

    if metrics_out.is_some() {
        ipv6web_obs::reset();
        ipv6web_obs::enable();
    }
    let mut scenario = scale.scenario(seed);
    if let Some(path) = &fault_plan_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("repro: cannot read fault plan {path}: {e}");
            std::process::exit(2);
        });
        scenario.faults = serde_json::from_str::<FaultPlan>(&text).unwrap_or_else(|e| {
            eprintln!("repro: cannot parse fault plan {path}: {e}");
            std::process::exit(2);
        });
    }
    if checkpoint_dir.is_some() {
        scenario.checkpoint_dir = checkpoint_dir;
    }
    // A typo'd --checkpoint-dir used to surface only at the first
    // checkpoint write, after minutes of campaign work. Validate before
    // doing anything expensive and fail with the usual exit code 2.
    if let Some(dir) = &scenario.checkpoint_dir {
        if let Err(e) = ipv6web_monitor::validate_checkpoint_dir(Path::new(dir)) {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    }
    // Output paths and the baseline get the same treatment: a bad one used
    // to panic on the final write, after the whole study had run.
    for path in json_out.iter().chain(&metrics_out) {
        validate_output_file(Path::new(path)).unwrap_or_else(|e| output_failure(e));
    }
    if let Some(dir) = &csv_dir {
        validate_output_dir(Path::new(dir)).unwrap_or_else(|e| output_failure(e));
    }
    let baseline = baseline_path.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("repro: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        BenchReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("repro: cannot parse baseline {path}: {e}");
            std::process::exit(2);
        })
    });
    eprintln!("running study (scale {scale:?}, seed {seed}, {mode:?})...");
    let t0 = std::time::Instant::now();
    let study = run_study_mode(&scenario, mode).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let wall_s = t0.elapsed().as_secs_f64();
    eprintln!("study complete in {wall_s:.1}s\n");
    eprint!("{}", study.timings.render());
    eprintln!("study wall clock: {wall_s:.3}s\n");
    let r = &study.report;

    for artifact in &wanted {
        let text = match artifact.as_str() {
            "fig1" => r.render_fig1(),
            "fig3a" => r.render_fig3a(),
            "fig3b" => r.render_fig3b(),
            "tab1" => r.render_table1(),
            "tab2" => r.table2.to_string(),
            "tab3" => r.table3.to_string(),
            "tab4" => r.table4.to_string(),
            "tab5" => r.table5.to_string(),
            "tab6" => r.table6.to_string(),
            "tab7" => r.table7.to_string(),
            "tab8" => r.table8.to_string(),
            "tab9" => r.table9.to_string(),
            "tab10" => r.table10.to_string(),
            "tab11" => r.table11.to_string(),
            "tab12" => r.table12.to_string(),
            "tab13" => r.table13.to_string(),
            "verdicts" => {
                let mut t = format!("{}\n{}\n{}", r.better_v6, r.h1.summary, r.h2.summary);
                // scenarios without a translation plane keep the exact
                // historical bytes; nat64 runs get the per-stack tables
                if r.xlat.is_some() {
                    t.push('\n');
                    t.push_str(&r.render_xlat());
                }
                if r.panel.is_some() {
                    t.push('\n');
                    t.push_str(&r.render_panel());
                }
                t
            }
            "compare" => ipv6web_bench::render_comparison(r),
            _ => unreachable!("filtered above"),
        };
        println!("{text}");
    }

    if let Some(dir) = csv_dir {
        use ipv6web_analysis::export;
        let dir = std::path::PathBuf::from(dir);
        let files = [
            ("fig1.csv", export::fig1_csv(&r.fig1)),
            ("fig3a.csv", export::fig3a_csv(&r.fig3a)),
            ("table7.csv", export::hop_table_csv(&r.table7)),
            ("table8.csv", export::table8_csv(&r.table8)),
            ("table9.csv", export::hop_table_csv(&r.table9)),
            ("table10.csv", export::table8_csv(&r.table10)),
            ("table11.csv", export::table11_csv(&r.table11)),
            ("table12.csv", export::table11_csv(&r.table12)),
            ("kept_sites.csv", export::kept_sites_csv(&study.analyses)),
        ];
        for (name, content) in files {
            write_output(&dir.join(name), content, true).unwrap_or_else(|e| output_failure(e));
        }
        eprintln!("wrote CSVs to {}", dir.display());
    }

    if let Some(path) = json_out {
        // The report itself stays bit-comparable across runs. Without
        // --metrics, timings ride along under a separate top-level key (the
        // historical behavior); with --metrics they move to BENCH.json and
        // the report file is written pure, so CI can byte-compare it across
        // thread counts and runs.
        let mut value = serde_json::to_value(r).expect("report serializes");
        if metrics_out.is_none() {
            if let serde_json::Value::Obj(fields) = &mut value {
                let timings = serde_json::to_value(&study.timings).expect("timings serialize");
                fields.push(("timings".to_string(), timings));
            }
        }
        let json = serde_json::to_string_pretty(&value).expect("report serializes");
        write_output(Path::new(&path), json, false).unwrap_or_else(|e| output_failure(e));
        eprintln!("wrote JSON report to {path}");
    }

    if let Some(path) = metrics_out {
        ipv6web_obs::record_peak_rss();
        ipv6web_obs::flush_thread();
        let snap = ipv6web_obs::snapshot();
        let bench = BenchReport::assemble(
            scale.name(),
            seed,
            ipv6web_par::thread_count() as u64,
            wall_s,
            &study.timings,
            &snap,
        );
        write_output(Path::new(&path), bench.to_json(), false)
            .unwrap_or_else(|e| output_failure(e));
        eprintln!("wrote bench metrics to {path}");

        if let Some(base) = baseline {
            match check_regression(&bench, &base, DEFAULT_TOLERANCE) {
                Ok(verdict) => eprintln!("bench gate: {verdict}"),
                Err(verdict) => {
                    eprintln!("bench gate: FAIL — {verdict}");
                    eprint!("{}", render_diff(&bench, &base));
                    std::process::exit(1);
                }
            }
        }
    }
}
