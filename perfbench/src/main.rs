//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload stress_fleet|repro_compare|outage_serve
//!           --seconds S [--seed N] [--trace 0|1]
//!           --serve-bin PATH --work-dir DIR
//! ```
//!
//! `--seconds` sets the number of passes over the workload's worlds
//! (see `workloads::passes`). The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The line before it
//! is the run's fingerprint: digests, per-slot state hashes, the `sim_*`
//! values and `snapshot_bytes`, all functions of the seed alone.

mod checks;
mod drive;
mod ledger;
mod shadow;
mod workloads;

use checks::Checks;
use geoplace_bench::json::{object, Value};
use geoplace_types::{Exec, Parallelism};
use ledger::Ledger;
use std::path::PathBuf;
use workloads::{Outcome, Params};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["stress_fleet", "repro_compare", "outage_serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: f64::NAN,
        trace: false,
        serve_bin: PathBuf::new(),
        work_dir: PathBuf::from("."),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds requires a positive number".into());
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} worker threads {}",
        args.workload,
        args.seed,
        Exec::new(Parallelism::Auto).threads()
    );
    let mut params = Params {
        seed: args.seed,
        seconds: args.seconds,
        ledger: Ledger::new(args.trace),
        serve_bin: args.serve_bin,
        work_dir: args.work_dir,
    };
    let mut checks = Checks::default();
    let outcome = match args.workload.as_str() {
        "stress_fleet" => workloads::stress_fleet(&mut params, &mut checks),
        "repro_compare" => workloads::repro_compare(&mut params, &mut checks),
        _ => workloads::outage_serve(&mut params, &mut checks),
    };
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("operation failed: {e}");
        Outcome {
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            fingerprint: Value::Null,
        }
    });
    if args.trace {
        let path = params
            .work_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, params.ledger.render_spans(&args.workload, args.seed))
        {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    let mut metrics = Vec::new();
    for (name, value, unit) in &outcome.metrics {
        checks.require(value.is_finite(), || format!("metric {name} has no value"));
        let value = if value.is_finite() { *value } else { 0.0 };
        metrics.push((
            name.as_str(),
            object(vec![("value", value.into()), ("unit", (*unit).into())]),
        ));
    }
    println!("fingerprint {}", outcome.fingerprint.render());
    let result = object(vec![
        ("correct", checks.passed().into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", object(metrics)),
    ]);
    println!("{}", result.render());
}
