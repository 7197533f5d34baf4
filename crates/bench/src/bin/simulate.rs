//! `simulate` — run an application (from a config file or the generator) on
//! one of the paper's SoCs under a chosen coherence policy.
//!
//! ```text
//! simulate [--soc NAME] [--policy NAME] [--app FILE] [--seed N]
//!          [--train N] [--save-qtable FILE] [--load-qtable FILE]
//!
//!   --soc      soc0..soc6, soc0-streaming, soc0-irregular,
//!              motivation-isolation, motivation-parallel   (default soc0)
//!   --policy   fixed-non-coh-dma | fixed-llc-coh-dma | fixed-coh-dma |
//!              fixed-full-coh | rand | fixed-hetero | manual | cohmeleon
//!              (default cohmeleon)
//!   --app      application config file (see cohmeleon-workloads docs);
//!              omitted = a randomly generated evaluation application
//!   --seed     RNG seed (default 7)
//!   --train    Cohmeleon training iterations (default 10; 0 with --load-qtable)
//!   --save-qtable / --load-qtable
//!              persist or restore a trained Q-table (TSV; cohmeleon only)
//! ```

use std::process::ExitCode;

use cohmeleon_bench::table;
use cohmeleon_exp::policies::{build_policy, PolicyKind};
use cohmeleon_soc::config::{
    motivation_isolation_soc, motivation_parallel_soc, soc0, soc0_irregular, soc0_streaming, soc1,
    soc2, soc3, soc4, soc5, soc6,
};
use cohmeleon_soc::SocConfig;
use cohmeleon_workloads::appconfig::parse_app;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::runner::run_protocol;

struct Args {
    soc: String,
    policy: String,
    app: Option<String>,
    seed: u64,
    train: usize,
    save_qtable: Option<String>,
    load_qtable: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        soc: "soc0".into(),
        policy: "cohmeleon".into(),
        app: None,
        seed: 7,
        train: 10,
        save_qtable: None,
        load_qtable: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--soc" => args.soc = value("--soc")?,
            "--policy" => args.policy = value("--policy")?,
            "--app" => args.app = Some(value("--app")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--train" => {
                args.train = value("--train")?
                    .parse()
                    .map_err(|_| "--train must be an integer".to_string())?;
            }
            "--save-qtable" => args.save_qtable = Some(value("--save-qtable")?),
            "--load-qtable" => args.load_qtable = Some(value("--load-qtable")?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn soc_by_name(name: &str) -> Option<SocConfig> {
    Some(match name {
        "soc0" => soc0(),
        "soc0-streaming" => soc0_streaming(),
        "soc0-irregular" => soc0_irregular(),
        "soc1" => soc1(),
        "soc2" => soc2(),
        "soc3" => soc3(),
        "soc4" => soc4(),
        "soc5" => soc5(),
        "soc6" => soc6(),
        "motivation-isolation" => motivation_isolation_soc(),
        "motivation-parallel" => motivation_parallel_soc(),
        _ => return None,
    })
}

/// The fenced block of this file's module doc.
fn usage() -> String {
    include_str!("simulate.rs")
        .lines()
        .skip_while(|l| *l != "//! ```text")
        .skip(1)
        .take_while(|l| *l != "//! ```")
        .map(|l| l.strip_prefix("//!").unwrap_or(l))
        .map(|l| l.strip_prefix(' ').unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e == "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let Some(config) = soc_by_name(&args.soc) else {
        eprintln!("error: unknown SoC `{}`", args.soc);
        return ExitCode::from(2);
    };
    let Some(kind) = PolicyKind::ALL
        .into_iter()
        .find(|k| k.label() == args.policy)
    else {
        eprintln!("error: unknown policy `{}`", args.policy);
        return ExitCode::from(2);
    };
    if kind != PolicyKind::Cohmeleon {
        for (flag, path) in [
            ("--load-qtable", &args.load_qtable),
            ("--save-qtable", &args.save_qtable),
        ] {
            if path.is_some() {
                eprintln!("error: {flag} only applies to --policy cohmeleon");
                return ExitCode::from(2);
            }
        }
    }

    let test_app = match &args.app {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match parse_app(&text) {
                Ok(app) => app,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => generate_app(&config, &GeneratorParams::default(), args.seed ^ 0xa99),
    };
    let train_app = generate_app(&config, &GeneratorParams::default(), args.seed);

    // Build the policy; a pre-trained Q-table is imported and frozen, and
    // then evaluated without a training loop.
    let mut policy = build_policy(kind, &config, args.train.max(1), args.seed);
    let mut train_iterations = args.train;
    if let Some(path) = &args.load_qtable {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = policy.import_table(&text) {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
        policy.freeze();
        train_iterations = 0;
        println!("loaded trained Q-table from {path}");
    }

    println!(
        "running `{}` on {} under {} (seed {})",
        test_app.name, config.name, args.policy, args.seed
    );
    let result = run_protocol(
        &config,
        &train_app,
        &test_app,
        policy.as_mut(),
        train_iterations,
        args.seed,
    );

    let rows: Vec<Vec<String>> = result
        .phases
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                p.duration.to_string(),
                p.offchip.to_string(),
                p.invocations.len().to_string(),
            ]
        })
        .collect();
    println!(
        "\n{}",
        table::render(&["phase", "cycles", "off-chip", "invocations"], &rows)
    );
    println!(
        "total: {} cycles, {} off-chip accesses",
        result.total_duration(),
        result.total_offchip()
    );

    if let Some(path) = &args.save_qtable {
        // The table the run above trained (or loaded) and evaluated.
        let table = policy
            .export_table()
            .expect("the cohmeleon agent has a Q-table");
        if let Err(e) = std::fs::write(path, table) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("saved trained Q-table to {path}");
    }
    ExitCode::SUCCESS
}
