//! The fleet workload: a grid of millisecond-scale cells swept by an
//! in-process queen and one loopback worker per CPU, with the fsynced
//! checkpoint.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cohmeleon_exp::{Experiment, PolicyKind, SweepGrid};
use cohmeleon_fleet::{
    run_queen, run_worker, QueenOptions, QueenReport, WorkerOptions, WorkerReport,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_soc::Soc;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::trace::{spanned, Tracer};

/// Grid seeds per sweep (cells = seeds × [`POLICIES`]).
pub const SEEDS: u64 = 64;
/// The policy axis: one fixed, one heuristic and one learning policy.
pub const POLICIES: [PolicyKind; 3] = [
    PolicyKind::FixedNonCoh,
    PolicyKind::Manual,
    PolicyKind::Cohmeleon,
];
/// Training iterations per learning cell.
pub const TRAIN_ITERATIONS: usize = 1;

/// The sweep's grid: soc1 × one-phase quick apps × [`POLICIES`] ×
/// [`SEEDS`] consecutive seeds starting at `seed` — cells of a few
/// milliseconds, so per-cell dispatch cost shows. Elaborates the SoC
/// once, so its set-up cost counts. Also returns the seconds spent
/// generating applications.
pub fn grid(seed: u64) -> (SweepGrid, f64) {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let start = Instant::now();
    let train = generate_app(&config, &params, 1);
    let test = generate_app(&config, &params, 2);
    let generate_s = start.elapsed().as_secs_f64();
    std::hint::black_box(Soc::new(config.clone()));
    let grid = Experiment::train_test(config, train, test)
        .policy_kinds(POLICIES)
        .seeds((0..SEEDS).map(|k| seed.wrapping_add(k)))
        .train_iterations(TRAIN_ITERATIONS)
        .build()
        .expect("fleet grid is non-empty");
    (grid, generate_s)
}

/// One finished sweep.
#[derive(Debug)]
pub struct Sweep {
    /// Wall seconds from queen start to both sides finished.
    pub wall_s: f64,
    /// The finished checkpoint's bytes.
    pub bytes: String,
    /// The queen's report.
    pub queen: QueenReport,
    /// Each worker's report.
    pub workers: Vec<WorkerReport>,
}

/// Sweeps `grid` once through a queen and one loopback worker per CPU,
/// with a fresh checkpoint at `path`. One worker per CPU spreads the
/// sweep over the machine like the executors do; with a single worker a
/// sweep's time depends on which CPU that thread lands on. With a tracer,
/// records `fleet.queen` and `fleet.worker` spans.
pub fn sweep(
    grid: &SweepGrid,
    path: &Path,
    tracer: Option<(&Tracer, u64)>,
) -> Result<Sweep, String> {
    let _ = std::fs::remove_file(path);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let options = QueenOptions::new("perfbench", false);
    let start = Instant::now();
    let (queen, workers) = std::thread::scope(|scope| {
        let queen = scope.spawn(|| {
            spanned(tracer, "fleet.queen", || {
                run_queen(grid, listener, path, &options)
            })
        });
        let workers: Vec<_> = (0..crate::stats::cpus())
            .map(|w| {
                let addr = &addr;
                scope.spawn(move || {
                    spanned(tracer, "fleet.worker", || {
                        let options = WorkerOptions::new(format!("perfbench-{w}"));
                        run_worker(addr, |_, _| Ok(grid.clone()), &options)
                    })
                })
            })
            .collect();
        let workers: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
        (queen.join().expect("queen thread panicked"), workers)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let queen = queen.map_err(|e| format!("queen: {e}"))?;
    let workers = workers
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("worker: {e}"))?;
    if !queen.complete {
        return Err("fleet sweep did not complete the grid".into());
    }
    let bytes = std::fs::read_to_string(path).map_err(|e| format!("read checkpoint: {e}"))?;
    let _ = std::fs::remove_file(path);
    Ok(Sweep {
        wall_s,
        bytes,
        queen,
        workers,
    })
}

/// Lines of `got` that differ from `want` (missing or extra lines count
/// too): the failed cells of one sweep.
pub fn differing_lines(got: &str, want: &str) -> u64 {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let same = g.iter().zip(&w).filter(|(a, b)| a == b).count();
    (g.len().max(w.len()) - same) as u64
}

/// The checkpoint path for this process inside `dir`.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join(format!("fleet-{}.jsonl", std::process::id()))
}
