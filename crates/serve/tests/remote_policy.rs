//! Remote dispatch equals local dispatch, bit for bit.
//!
//! Trains a real softmax-composed router on a quick protocol run, freezes
//! it to the persisted router-tables document, then runs the *same*
//! evaluation twice: once with a local [`FrozenPolicy`] and once with a
//! [`RemotePolicy`] whose every decision travels through a live server
//! over loopback. The two [`AppResult::structural_hash`]es must be
//! identical — the serving layer adds latency, never different decisions.
//! (Softmax exploration is required: a frozen epsilon-greedy agent still
//! tie-breaks randomly, so only argmax-pure compositions freeze to a
//! deterministic table.)

use std::net::TcpListener;
use std::sync::Arc;

use cohmeleon_core::explore::{Exploration, Softmax};
use cohmeleon_core::reward::RewardWeights;
use cohmeleon_core::update::BlendUpdate;
use cohmeleon_core::{
    AgentScope, FrozenPolicy, FrozenSnapshot, LearnedPolicy, Policy, PolicyRouter, StateSpace,
};
use cohmeleon_serve::{run_server, Query, RemotePolicy, ServeClient, ServeOptions, ServerReport};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::{evaluate_policy, generate_app, run_protocol, GeneratorParams};

const TRAIN_ITERATIONS: usize = 2;
const SEED: u64 = 7;

/// Trains a per-kind softmax router and returns its frozen export.
fn trained_snapshot() -> FrozenSnapshot {
    let config = soc1();
    let params = GeneratorParams {
        phases: 2,
        threads: (2, 4),
        ..GeneratorParams::default()
    };
    let train_app = generate_app(&config, &params, 11);
    let test_app = generate_app(&config, &params, 22);
    let mut router = PolicyRouter::new(AgentScope::PerKind, SEED, |_, seed| {
        Box::new(LearnedPolicy::with_components(
            "softmax",
            StateSpace::Table3,
            Exploration::Softmax(Softmax::default_schedule(TRAIN_ITERATIONS)),
            BlendUpdate::paper(TRAIN_ITERATIONS),
            RewardWeights::paper_default(),
            TRAIN_ITERATIONS,
            seed,
        ))
    });
    run_protocol(
        &config,
        &train_app,
        &test_app,
        &mut router,
        TRAIN_ITERATIONS,
        SEED,
    );
    let text = router.export_table().expect("router exports tables");
    FrozenSnapshot::parse(&text, StateSpace::Table3.cardinality()).expect("frozen export parses")
}

/// Runs `run_server` on an OS-assigned loopback port; returns the address
/// and the join handle.
fn spawn_server(
    snapshot: FrozenSnapshot,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<ServerReport>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle =
        std::thread::spawn(move || run_server(listener, snapshot, &ServeOptions::default()));
    (addr, handle)
}

#[test]
fn remote_dispatch_is_bit_identical_to_local() {
    let snapshot = trained_snapshot();
    let config = soc1();
    let app = generate_app(&config, &GeneratorParams::default(), 33);

    let mut local = FrozenPolicy::new(Arc::new(snapshot.clone()), StateSpace::Table3);
    let local_result = evaluate_policy(&config, &app, &mut local, SEED);

    let (addr, server) = spawn_server(snapshot);
    let client = ServeClient::connect(&addr, "remote-policy-test").expect("connect");
    assert_eq!(client.states(), 243);
    assert_eq!(client.scope(), AgentScope::PerKind);
    let mut remote = RemotePolicy::new(client, StateSpace::Table3);
    let remote_result = evaluate_policy(&config, &app, &mut remote, SEED);

    assert_eq!(
        local_result.structural_hash(),
        remote_result.structural_hash(),
        "remote dispatch diverged from local frozen dispatch"
    );

    let client = remote.into_client();
    client.shutdown().expect("shutdown");
    let report = server.join().expect("server thread").expect("server ran");
    assert!(report.decisions > 0, "server answered no queries");
    assert_eq!(report.swaps, 0);
}

#[test]
fn batched_queries_equal_single_queries() {
    let snapshot = trained_snapshot();
    let states = snapshot.states();
    let (addr, server) = spawn_server(snapshot);

    let mut client = ServeClient::connect(&addr, "batch-equivalence").expect("connect");
    let mut queries = Vec::new();
    for i in 0..64u64 {
        queries.push(Query {
            instance: (i % 5) as u16,
            kind: if i % 4 == 0 {
                None
            } else {
                Some((i % 3) as u16)
            },
            state: (i.wrapping_mul(97) % states as u64) as u32,
            mask: 1 + (i % 15) as u8,
        });
    }

    let (batch_version, batched) = client.decide_batch(&queries).expect("batched decide");
    let mut singles = Vec::new();
    for &q in &queries {
        let (version, modes) = client.decide_batch(&[q]).expect("single decide");
        assert_eq!(version, batch_version, "no swap happened in this test");
        singles.push(modes[0]);
    }
    assert_eq!(batched, singles, "batching changed decisions");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server ran");
}
