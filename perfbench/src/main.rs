//! Helix analyst-session benchmark.
//!
//! ```text
//! helix-perfbench --workload <census|active_learning> --seed <n> --seconds <s> --trace <0|1>
//! helix-perfbench spread --seeds <first>-<last>
//! ```
//!
//! The first form runs one workload for about `--seconds` and prints its
//! metrics, then as the last line of standard output one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. It
//! exits non-zero when any call failed or any iteration's metrics differ
//! from the reference run. The second form runs the first once per seed
//! on every workload in `BENCHMARK.json` and reports each metric's
//! run-to-run spread. See `README.md`.

mod active;
mod measure;
mod script;
mod stats;
mod steady;
mod trace;

use measure::{Metric, Run};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Scratch space for generated data and stores, under the current
/// directory; removed when the run ends.
const WORK_DIR: &str = ".perfbench_work";
/// Where traced runs leave their span files.
const SPAN_DIR: &str = ".perfbench_spans";

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["census", "active_learning"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen = [false; 4];
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                args.workload = value.clone();
                seen[0] = true;
            }
            "--workload" => return Err(bad(&format!("expected one of {}", WORKLOADS.join(", ")))),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("expected a whole number"))?;
                seen[1] = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
                seen[2] = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if seen.contains(&false) {
        return Err("--workload, --seed, --seconds and --trace are all required".into());
    }
    Ok(args)
}

/// SplitMix64: derives independent generator seeds from the run seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Generates the workload's inputs from the seed (untimed) and measures.
fn run_workload(args: &Args, work: &Path) -> Result<Run, String> {
    use helix_workloads::census::{
        census_iterations, generate_census, CensusDataSpec, CensusParams,
    };
    let err = |e: helix_core::HelixError| format!("generating inputs: {e}");
    let data = work.join("data");
    let input_bytes =
        |run_dir: &Path| dir_bytes(run_dir).map_err(|e| format!("sizing inputs: {e}"));
    match args.workload.as_str() {
        "census" => {
            let spec = CensusDataSpec {
                seed: derive_seed(args.seed, 1),
                ..CensusDataSpec::default()
            };
            generate_census(&data, &spec).map_err(err)?;
            let mut run = Run::new(input_bytes(&data)?, parallelism());
            let census = script::Script {
                initial: CensusParams::initial(&data),
                edits: census_iterations(),
            };
            script::measure(&census, work, args.seconds, args.trace, &mut run)?;
            Ok(run)
        }
        _ => {
            // Twice the scheduler's partition threshold and a little more,
            // so the partitioned path is taken on every round.
            let spec = CensusDataSpec {
                train_rows: active::TRAIN_ROWS,
                test_rows: active::TEST_ROWS,
                seed: derive_seed(args.seed, 1),
                ..CensusDataSpec::default()
            };
            generate_census(&data, &spec).map_err(err)?;
            let mut run = Run::new(input_bytes(&data)?, parallelism());
            let al = active::Loop {
                data,
                rounds: active::ROUNDS,
                batch: active::BATCH,
                label_seed: derive_seed(args.seed, 3),
            };
            active::measure(&al, work, args.seconds, args.trace, &mut run)?;
            Ok(run)
        }
    }
}

fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{title}\n  {:<28} {:>16} {:<7} {:>6}\n",
        "metric", "value", "unit", "n"
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<28} {:>16.6} {:<7} {:>6}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

fn result_line(correct: bool, run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN: a metric that could not be computed is null
            // (and the run is not correct).
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        std::process::exit(steady::main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: helix-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work: PathBuf = [
        WORK_DIR,
        &format!("{}-{}-{}", args.workload, args.seed, std::process::id()),
    ]
    .iter()
    .collect();
    let _ = std::fs::remove_dir_all(&work);
    let run = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run_workload(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let run = match run {
        Ok(run) => run,
        Err(msg) => {
            eprintln!("{}: {msg}", args.workload);
            std::process::exit(1);
        }
    };

    let untraced = run.passes.iter().filter(|p| !p.traced).count();
    println!(
        "workload {} seed {} parallelism {}: {} passes ({} traced), {} operations, {} failed",
        args.workload,
        args.seed,
        run.parallelism,
        run.passes.len(),
        run.passes.len() - untraced,
        run.attempted,
        run.failed
    );
    for failure in &run.failures {
        println!("  failure: {failure}");
    }
    for (k, pass) in run.passes.iter().enumerate() {
        println!(
            "  pass {k}{}: first {:.4} s, cumulative {:.4} s, store {} bytes, peak {:.1} MiB",
            if pass.traced { " (traced)" } else { "" },
            pass.iters.first().map_or(f64::NAN, |i| i.wall_s),
            pass.cumulative_s(),
            pass.end.used_bytes,
            pass.peak_rss_mb
        );
    }
    let end_to_end = run.end_to_end();
    print!("{}", table("end-to-end (gated)", &end_to_end));
    print!(
        "{}",
        table(
            "end-to-end (workload-specific, not gated)",
            &run.workload_specific()
        )
    );
    let reported = if args.trace {
        let per_layer = run.per_layer();
        print!("{}", table("per-layer (traced passes)", &per_layer));
        let path = Path::new(SPAN_DIR).join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, run.tracer.dump()))
        {
            Ok(()) => println!(
                "spans: {} ({} spans)",
                path.display(),
                run.tracer.spans().len()
            ),
            Err(e) => eprintln!("writing spans to {}: {e}", path.display()),
        }
        per_layer
    } else {
        end_to_end
    };
    let correct = run.failed == 0 && reported.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, &run, &reported));
    std::process::exit(if correct { 0 } else { 1 });
}
