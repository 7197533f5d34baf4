//! Sweeps the learner design space (state spaces × exploration strategies
//! × update rules) through the experiment grid and writes the per-cell
//! JSONL record.
//!
//! ```text
//! learner_ablation [--out PATH] [--resume]
//! ```
//!
//! Default output is `learner_ablation.jsonl` (`COHMELEON_FAST=1` for the
//! reduced grid). `--resume` skips cells already recorded at the output
//! path and appends only the missing ones (a killed sweep finishes
//! instead of restarting). To spread the grid over N processes, run
//! `sweep shard --grid learners --shards N --out PATH`, then
//! `learner_ablation --resume --out PATH` prints the figure from the
//! finished file. All paths end in the same canonical record stream,
//! byte-identical to a serial run.

use cohmeleon_bench::figures::learner_ablation;
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
    let mut experiment = learner_ablation::experiment(scale);
    if let Some(out) = &out_flag {
        experiment = experiment.resume_from(out);
    }
    let grid = experiment.build().expect("learner ablation axes are non-empty");
    let out = grid
        .resume_path()
        .expect("the ablation experiment carries its checkpoint path")
        .to_owned();

    let records = if resume {
        let outcome = grid
            .run_resumable(&out, &WorkStealing::new())
            .expect("resume learner ablation");
        println!(
            "learner_ablation: resumed {} cells from disk, ran {}",
            outcome.reused, outcome.ran
        );
        outcome.records
    } else {
        let records = grid.collect_records(&WorkStealing::new());
        std::fs::write(&out, canonical_jsonl(&records)).expect("write learner-ablation JSONL");
        records
    };

    let count = records.len();
    let data = learner_ablation::data_from_records(records);
    learner_ablation::print(&data);
    println!("\nwrote {count} cell records to {}", out.display());
}
