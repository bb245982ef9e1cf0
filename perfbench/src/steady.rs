//! `spread`: runs the benchmark once per seed on each workload listed in
//! `BENCHMARK.json`, for its `run_seconds`, as separate processes, and
//! reports every end-to-end metric's median and run-to-run spread
//! against a third of the metric's bound.

use crate::stats::{median, quartiles, spread};
use helix_json::Json;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// What `spread` checks, as `BENCHMARK.json` in the current directory
/// gives it.
struct Spec {
    workloads: Vec<String>,
    seconds: u64,
    bounds: BTreeMap<String, f64>,
}

fn read_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: a workload has no name")?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str)?;
            Some((name.to_string(), m.get("bound").and_then(Json::as_f64)?))
        })
        .collect::<Option<BTreeMap<_, _>>>()
        .ok_or("BENCHMARK.json: an end-to-end metric has no name or bound")?;
    let seconds = json
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("BENCHMARK.json: no `run_seconds`")?;
    Ok(Spec {
        workloads,
        seconds,
        bounds,
    })
}

fn parse_seeds(argv: &[String]) -> Result<Vec<u64>, String> {
    let [flag, value] = argv else {
        return Err("expected exactly `--seeds <first>-<last>`".into());
    };
    if flag != "--seeds" {
        return Err(format!("unknown argument `{flag}`"));
    }
    let (a, b) = value.split_once('-').unwrap_or((value, value));
    let parse = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("--seeds: bad seed `{s}`"))
    };
    let seeds: Vec<u64> = (parse(a)?..=parse(b)?).collect();
    if seeds.len() < 2 {
        return Err("--seeds <first>-<last> must name at least two seeds".into());
    }
    Ok(seeds)
}

/// Runs one workload once; the result line's metrics if the run exited 0
/// and was correct.
fn run_once(exe: &std::path::Path, workload: &str, seed: u64, seconds: u64) -> Option<Json> {
    let started = Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output();
    let secs = started.elapsed().as_secs_f64();
    let Ok(output) = output else {
        println!("{workload} seed {seed}: could not start the benchmark");
        return None;
    };
    let result = String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok());
    let correct = result
        .as_ref()
        .and_then(|r| r.get("correct"))
        .and_then(Json::as_bool)
        == Some(true);
    let status = output.status.code().unwrap_or(-1);
    println!("{workload} seed {seed}: exit {status}, correct {correct}, {secs:.1} s");
    if !correct || status != 0 {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return None;
    }
    result?.get("metrics").cloned()
}

/// Runs the spread check; returns the process exit code: 0 when every
/// run was correct and every spread but that of `setup_s` is at most a
/// third of its bound.
pub fn main(argv: &[String]) -> i32 {
    let (seeds, spec) = match parse_seeds(argv).and_then(|s| Ok((s, read_spec()?))) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage: helix-perfbench spread --seeds <first>-<last>   (from the directory holding BENCHMARK.json)");
            return 2;
        }
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return 1;
    };
    let mut steady = true;
    for workload in &spec.workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for &seed in &seeds {
            let Some(Json::Obj(metrics)) = run_once(&exe, workload, seed, spec.seconds) else {
                steady = false;
                continue;
            };
            let mut line = String::new();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    line.push_str(&format!(" {name}={v:.6}"));
                    values.entry(name).or_default().push(v);
                }
            }
            println!("  {line}");
        }
        println!(
            "{workload}: {:<28} {:>14} {:>14} {:>14} {:>8} {:>8}",
            "metric", "q1", "median", "q3", "spread", "bound/3"
        );
        for (name, v) in &values {
            let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            let s = spread(v).unwrap_or(f64::NAN);
            let limit = spec.bounds.get(name).map(|b| b / 3.0);
            // setup_s has no spread rule; a later change is compared on
            // its median alone.
            let ok = name == "setup_s" || limit.is_none_or(|l| s <= l);
            steady &= ok;
            println!(
                "{workload}: {name:<28} {q1:>14.6} {:>14.6} {q3:>14.6} {s:>8.4} {:>8} {}",
                median(v).unwrap_or(f64::NAN),
                limit.map_or("-".to_string(), |l| format!("{l:.4}")),
                if ok { "" } else { "TOO WIDE" }
            );
        }
    }
    if steady {
        0
    } else {
        1
    }
}
