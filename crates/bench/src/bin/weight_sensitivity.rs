//! Sweeps reward-weight presets × agent scopes through the experiment
//! grid (Figure-6-style weight sensitivity on the learner axis) and
//! writes the per-cell JSONL record.
//!
//! ```text
//! weight_sensitivity [--out PATH] [--resume]
//! ```
//!
//! Default output is `weight_sensitivity.jsonl` (`COHMELEON_FAST=1` for
//! the reduced grid). `--resume` skips cells already recorded at the
//! output path. To spread the grid over N processes, run `sweep shard
//! --grid weights --shards N --out PATH`, then `weight_sensitivity
//! --resume --out PATH` prints the figure from the finished file. All
//! paths end in the same canonical record stream, byte-identical to a
//! serial run.

use cohmeleon_bench::figures::weight_sensitivity;
use cohmeleon_bench::Scale;
use cohmeleon_exp::{canonical_jsonl, WorkStealing};

fn main() {
    let mut out_flag: Option<String> = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_flag = Some(args.next().expect("--out needs a path")),
            "--resume" => resume = true,
            other => panic!("unknown argument `{other}`"),
        }
    }

    let scale = Scale::from_env();
    let mut experiment = weight_sensitivity::experiment(scale);
    if let Some(out) = &out_flag {
        experiment = experiment.resume_from(out);
    }
    let grid = experiment
        .build()
        .expect("weight-sensitivity axes are non-empty");
    let out = grid
        .resume_path()
        .expect("the weight-sensitivity experiment carries its checkpoint path")
        .to_owned();

    let records = if resume {
        let outcome = grid
            .run_resumable(&out, &WorkStealing::new())
            .expect("resume weight sensitivity");
        println!(
            "weight_sensitivity: resumed {} cells from disk, ran {}",
            outcome.reused, outcome.ran
        );
        outcome.records
    } else {
        let records = grid.collect_records(&WorkStealing::new());
        std::fs::write(&out, canonical_jsonl(&records)).expect("write weight-sensitivity JSONL");
        records
    };

    let count = records.len();
    let data = weight_sensitivity::data_from_records(records);
    weight_sensitivity::print(&data);
    println!("\nwrote {count} cell records to {}", out.display());
}
