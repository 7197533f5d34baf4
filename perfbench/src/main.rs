//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints every metric as `name=value unit`, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). Trace runs also write their spans as JSON lines under
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`).

use std::path::PathBuf;
use std::process::ExitCode;

use cohmeleon_perfbench::run::{run, RunConfig, Workload};
use cohmeleon_perfbench::stats::{commit, cpus};
use cohmeleon_perfbench::trace::Tracer;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<(Workload, RunConfig), String> {
    let out_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench");
    let mut cfg = RunConfig {
        seed: cohmeleon_perfbench::sim::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::default();
    let outcome = match run(workload, &cfg, &tracer) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cpus={} commit={}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cpus(),
        commit()
    );
    for line in outcome.lines() {
        println!("{line}");
    }
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.jsonl", workload.name(), cfg.seed));
        let written =
            std::fs::create_dir_all(&cfg.out_dir).and_then(|()| tracer.write_jsonl(&path));
        match written {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", outcome.json(cfg.trace));
    ExitCode::SUCCESS
}
