//! Load generation: N client threads hammer a server over loopback and
//! verify every response against local frozen dispatch.
//!
//! Each simulated-SoC client owns its own connection and its own
//! deterministic query stream (xorshift64*, seeded from the shared seed
//! plus the client index), batches queries like an engine flushing an
//! invocation window, and times each batch round-trip into a
//! [`LogHistogram`]. When the caller supplies the snapshots the server is
//! serving (by version), every returned mode is recomputed locally — a
//! mismatch means the server answered from a table it did not claim, the
//! exact torn-state failure hot-swap must never produce.

use std::collections::BTreeSet;
use std::io;
use std::time::{Duration, Instant};

use cohmeleon_chaos::FaultPlan;
use cohmeleon_core::frozen::FrozenSnapshot;
use cohmeleon_core::{AccelInstanceId, AccelKindId, CoherenceMode, ModeSet};

use crate::client::ServeClient;
use crate::histogram::LogHistogram;
use crate::protocol::{Query, ToClient};

/// Under chaos, give up after this many consecutive failed attempts
/// with no progress (a connection that never yields a batch means the
/// server is gone, not merely faulty).
const MAX_CONSECUTIVE_FAILURES: usize = 64;

/// A mid-run snapshot swap the load run should trigger.
#[derive(Debug, Clone)]
pub struct SwapPlan {
    /// Server-side path of the snapshot to install.
    pub path: String,
    /// Client 0 issues the `SWAP` after completing this many batches.
    pub after_batches: usize,
}

/// What a load run should do.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent client connections.
    pub clients: usize,
    /// Batches each client sends.
    pub batches: usize,
    /// Queries per batch.
    pub batch_size: usize,
    /// Seed for the deterministic query streams.
    pub seed: u64,
    /// Instance ids are drawn from `0..instances`.
    pub instances: u16,
    /// Kind ids are drawn from `0..kinds` (1 in 4 queries goes out
    /// unregistered to exercise the catch-all route).
    pub kinds: u16,
    /// A swap to exercise mid-traffic, if any.
    pub swap: Option<SwapPlan>,
    /// The snapshots the server serves, indexed by `version - 1`. Every
    /// response whose version has an entry here is recomputed locally;
    /// responses without one are only counted (`unverified`).
    pub verify: Vec<FrozenSnapshot>,
    /// Seeded network fault injection: when set, every client connection
    /// is wrapped in a fault-injecting transport, and clients survive
    /// injected faults by reconnecting and retrying the interrupted
    /// batch — same queries, so the verified stream is unchanged. `None`
    /// is the plain direct path (any error aborts the run, as before).
    pub chaos: Option<FaultPlan>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            clients: 2,
            batches: 100,
            batch_size: 16,
            seed: 1,
            instances: 12,
            kinds: 4,
            swap: None,
            verify: Vec::new(),
            chaos: None,
        }
    }
}

/// What a load run did, merged over all clients.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Batches completed.
    pub batches: u64,
    /// Queries answered.
    pub decisions: u64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Per-batch round-trip latency.
    pub histogram: LogHistogram,
    /// Every table version that answered at least one batch.
    pub versions_seen: BTreeSet<u64>,
    /// Responses that disagreed with local dispatch on the table version
    /// the server claimed (must be 0).
    pub mismatches: u64,
    /// Responses whose claimed version had no snapshot to verify against.
    pub unverified: u64,
    /// Clean connection errors survived by reconnecting (always 0
    /// without fault injection).
    pub conn_errors: u64,
    /// Extra replies to chaos-duplicated `DECIDE` lines that were
    /// drained and verified like any other response.
    pub dup_replies: u64,
}

impl LoadReport {
    /// Answered queries per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.decisions as f64 / self.elapsed.as_secs_f64()
    }
}

/// The per-thread slice of a [`LoadReport`].
struct ClientReport {
    batches: u64,
    decisions: u64,
    histogram: LogHistogram,
    versions_seen: BTreeSet<u64>,
    mismatches: u64,
    unverified: u64,
    conn_errors: u64,
    dup_replies: u64,
}

fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn gen_query(rng: &mut u64, states: usize, options: &LoadOptions) -> Query {
    let r = xorshift64star(rng);
    let instance = (r % options.instances.max(1) as u64) as u16;
    let kind = if (r >> 16).is_multiple_of(4) {
        None
    } else {
        Some(((r >> 24) % options.kinds.max(1) as u64) as u16)
    };
    let state = ((r >> 32) % states.max(1) as u64) as u32;
    let mask = 1 + ((r >> 48) % 15) as u8;
    Query {
        instance,
        kind,
        state,
        mask,
    }
}

/// Recomputes one batch locally against the snapshot for `version`;
/// returns `(mismatches, unverified)` for it.
fn verify_batch(
    options: &LoadOptions,
    version: u64,
    queries: &[Query],
    modes: &[cohmeleon_core::CoherenceMode],
) -> (u64, u64) {
    let Some(snapshot) = (version as usize)
        .checked_sub(1)
        .and_then(|i| options.verify.get(i))
    else {
        return (0, queries.len() as u64);
    };
    let mut mismatches = 0;
    for (q, &got) in queries.iter().zip(modes) {
        let expected = snapshot.decide(
            AccelInstanceId(q.instance),
            q.kind.map(AccelKindId),
            q.state as usize,
            ModeSet::from_bits(q.mask),
        );
        if expected != Some(got) {
            mismatches += 1;
        }
    }
    (mismatches, 0)
}

/// Verifies the extra replies a chaos transport's duplicated `DECIDE`
/// lines earned. A duplicate delivery must still never produce a wrong
/// answer: each extra `MODES` is decoded and recomputed against the
/// snapshot of the version *it* claims (a swap may land between the two
/// deliveries, so the versions can legitimately differ).
fn verify_dup_replies(
    options: &LoadOptions,
    queries: &[Query],
    extras: Vec<ToClient>,
    report: &mut ClientReport,
) {
    for reply in extras {
        let ToClient::Modes { version, modes } = reply else {
            continue;
        };
        report.dup_replies += 1;
        report.versions_seen.insert(version);
        if modes.len() != queries.len() || modes.iter().any(|&m| m as usize >= CoherenceMode::COUNT)
        {
            report.mismatches += 1;
            continue;
        }
        let decoded: Vec<CoherenceMode> = modes
            .iter()
            .map(|&m| CoherenceMode::from_index(m as usize))
            .collect();
        let (mismatches, unverified) = verify_batch(options, version, queries, &decoded);
        report.mismatches += mismatches;
        report.unverified += unverified;
    }
}

fn run_client(addr: &str, index: usize, options: &LoadOptions) -> io::Result<ClientReport> {
    let chaos = options.chaos.as_ref();
    let name = format!("loadgen-{index}");
    let mut report = ClientReport {
        batches: 0,
        decisions: 0,
        histogram: LogHistogram::new(),
        versions_seen: BTreeSet::new(),
        mismatches: 0,
        unverified: 0,
        conn_errors: 0,
        dup_replies: 0,
    };
    let mut rng = options
        .seed
        .wrapping_add(index as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        | 1;
    let mut client: Option<ServeClient> = None;
    let mut swapped = false;
    let mut failures = 0usize;
    // The current batch's queries survive reconnects: a batch is retried
    // with the *same* queries until verified, so the deterministic query
    // stream is identical whatever faults the schedule injects.
    let mut pending: Option<Vec<Query>> = None;
    let mut batch = 0;
    while batch < options.batches {
        // Any fault funnels here: without chaos it aborts the run (the
        // pre-chaos behavior); with chaos it is a clean connection error
        // — counted, reconnected, and the batch retried.
        macro_rules! survive {
            ($e:expr) => {{
                let e = $e;
                if chaos.is_none() {
                    return Err(e);
                }
                report.conn_errors += 1;
                failures += 1;
                if failures > MAX_CONSECUTIVE_FAILURES {
                    return Err(e);
                }
                client = None;
                continue;
            }};
        }
        let c = match &mut client {
            Some(c) => c,
            None => match ServeClient::connect_with(addr, &name, chaos) {
                Ok(c) => client.insert(c),
                Err(e) => survive!(e),
            },
        };
        if let Some(plan) = &options.swap {
            if index == 0 && batch == plan.after_batches && !swapped {
                match c.swap(&plan.path) {
                    Ok(_) => swapped = true,
                    Err(e) => survive!(e),
                }
            }
        }
        let states = c.states();
        let queries = pending.get_or_insert_with(|| {
            (0..options.batch_size)
                .map(|_| gen_query(&mut rng, states, options))
                .collect()
        });
        let sent = Instant::now();
        let (version, modes) = match c.decide_batch(queries) {
            Ok(reply) => reply,
            Err(e) => survive!(e),
        };
        report.histogram.record(sent.elapsed().as_nanos() as u64);
        report.batches += 1;
        report.decisions += modes.len() as u64;
        report.versions_seen.insert(version);
        let (mismatches, unverified) = verify_batch(options, version, queries, &modes);
        report.mismatches += mismatches;
        report.unverified += unverified;
        match c.drain_duplicate_replies() {
            Ok(extras) => verify_dup_replies(options, queries, extras, &mut report),
            Err(_) if chaos.is_some() => {
                // The duplicate's reply was lost to a fault after the
                // primary verified; the batch still counts.
                report.conn_errors += 1;
                client = None;
            }
            Err(e) => return Err(e),
        }
        pending = None;
        failures = 0;
        batch += 1;
    }
    Ok(report)
}

/// Runs `options.clients` concurrent clients against `addr` and merges
/// their reports.
///
/// # Errors
///
/// Without fault injection: the first client error encountered
/// (connection failure, transport error, `ERR` reply). With a chaos
/// plan: only an error that survives the consecutive-failure cap's
/// reconnect attempts — injected faults are absorbed and counted in
/// [`LoadReport::conn_errors`].
pub fn run_load(addr: &str, options: &LoadOptions) -> std::io::Result<LoadReport> {
    let start = Instant::now();
    let results: Vec<std::io::Result<ClientReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|index| scope.spawn(move || run_client(addr, index, options)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut report = LoadReport {
        batches: 0,
        decisions: 0,
        elapsed,
        histogram: LogHistogram::new(),
        versions_seen: BTreeSet::new(),
        mismatches: 0,
        unverified: 0,
        conn_errors: 0,
        dup_replies: 0,
    };
    for result in results {
        let client = result?;
        report.batches += client.batches;
        report.decisions += client.decisions;
        report.histogram.merge(&client.histogram);
        report.versions_seen.extend(client.versions_seen);
        report.mismatches += client.mismatches;
        report.unverified += client.unverified;
        report.conn_errors += client.conn_errors;
        report.dup_replies += client.dup_replies;
    }
    Ok(report)
}
