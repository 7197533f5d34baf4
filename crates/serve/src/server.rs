//! The decision server: concurrent clients, a shared read path, and
//! atomic snapshot hot-swap.
//!
//! Mirrors the fleet queen's shape — a blocking accept loop inside
//! `std::thread::scope`, one handler thread per connection polling with a
//! short read timeout, and the last handler out after `SHUTDOWN` waking
//! the accept loop — but the shared state is deliberately different:
//! where the queen funnels every message through one mutex, the server's
//! handlers only share a read lock. The live table is an
//! `Arc<TableVersion>` behind a `std::sync::RwLock`; a `DECIDE` handler
//! clones the `Arc` under a read guard once per batch (so the whole batch
//! is answered from exactly one version, which the `MODES` reply names)
//! and answers every query from the frozen snapshot with no lock held.
//! Counters are relaxed atomics; only `SWAP` — a rare administrative verb
//! — takes the write guard, for one assignment.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use cohmeleon_chaos::{AcceptWaker, FaultPlan, FaultyTransport, Role};
use cohmeleon_core::frozen::FrozenSnapshot;
use cohmeleon_core::{AccelInstanceId, AccelKindId, ModeSet};

use crate::protocol::{LineReader, Query, ToClient, ToServer};

/// Handler read timeout: how quickly a handler notices shutdown under a
/// silent peer.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// One installed snapshot with its monotonic version number.
struct TableVersion {
    /// The version (1 for the initial table, +1 per successful `SWAP`).
    version: u64,
    /// The immutable decision store.
    snapshot: FrozenSnapshot,
}

/// Tuning knobs for [`run_server`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Seeded network fault injection: when set, every accepted client
    /// connection is wrapped in a [`FaultyTransport`] playing
    /// [`Role::Server`]. `None` is the plain direct path.
    pub chaos: Option<FaultPlan>,
}

/// What a server run did.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Total queries answered.
    pub decisions: u64,
    /// Total `DECIDE` batches answered.
    pub batches: u64,
    /// Snapshots installed after the initial one.
    pub swaps: u64,
    /// Clients accepted over the server's lifetime.
    pub clients: u64,
    /// `ERR` replies sent (rejected requests and failed swaps).
    pub errors: u64,
    /// The live table version at shutdown.
    pub final_version: u64,
}

/// State shared by every handler thread.
struct Shared {
    /// The live table. A swap is one assignment under the write guard,
    /// so even a poisoned lock holds a whole `Arc`.
    live: RwLock<Arc<TableVersion>>,
    /// Every snapshot ever installed must cover this many states; query
    /// validation happens against it before dispatch.
    states: usize,
    decisions: AtomicU64,
    batches: AtomicU64,
    swaps: AtomicU64,
    clients: AtomicU64,
    errors: AtomicU64,
    shutdown: AtomicBool,
}

/// Serves decisions from `initial` on `listener` until a client sends
/// `SHUTDOWN` and every connection drains.
///
/// Every `SWAP`-installed snapshot must cover the same state cardinality
/// as `initial` (clients encode against a fixed state space); its scope
/// may differ. A failed swap (unreadable file, parse error) leaves the
/// live table untouched and answers `ERR`.
///
/// # Errors
///
/// Setup failures (reading the listener's address) and accept-loop I/O
/// errors. Per-connection errors close that connection only.
pub fn run_server(
    listener: TcpListener,
    initial: FrozenSnapshot,
    options: &ServeOptions,
) -> io::Result<ServerReport> {
    let shared = Shared {
        states: initial.states(),
        live: RwLock::new(Arc::new(TableVersion {
            version: 1,
            snapshot: initial,
        })),
        decisions: AtomicU64::new(0),
        batches: AtomicU64::new(0),
        swaps: AtomicU64::new(0),
        clients: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
    };

    let waker = AcceptWaker::new(&listener)?;
    let active = AtomicUsize::new(0);
    let served = std::thread::scope(|scope| {
        for accepted in listener.incoming() {
            // Re-checked after every accept: the last handler out after a
            // SHUTDOWN connects once just to get this loop here.
            if shared.shutdown.load(Ordering::Acquire) && active.load(Ordering::Acquire) == 0 {
                return Ok(());
            }
            let stream = match accepted {
                Ok(stream) => stream,
                Err(e) => {
                    shared.shutdown.store(true, Ordering::Release);
                    return Err(e);
                }
            };
            shared.clients.fetch_add(1, Ordering::Relaxed);
            active.fetch_add(1, Ordering::AcqRel);
            let (shared, active, waker) = (&shared, &active, &waker);
            let options = options.clone();
            scope.spawn(move || {
                serve_client(stream, shared, &options);
                let last = active.fetch_sub(1, Ordering::AcqRel) == 1;
                if last && shared.shutdown.load(Ordering::Acquire) {
                    waker.wake();
                }
            });
        }
        Ok(())
    });
    served?;

    Ok(ServerReport {
        decisions: shared.decisions.load(Ordering::Relaxed),
        batches: shared.batches.load(Ordering::Relaxed),
        swaps: shared.swaps.load(Ordering::Relaxed),
        clients: shared.clients.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        final_version: shared.live().version,
    })
}

impl Shared {
    /// The live table version: one `Arc` clone under a read guard.
    fn live(&self) -> Arc<TableVersion> {
        Arc::clone(&self.live.read().unwrap_or_else(PoisonError::into_inner))
    }
}

fn send(writer: &mut FaultyTransport, message: &ToClient) -> io::Result<()> {
    writer.write_all(format!("{}\n", message.to_line()).as_bytes())
}

/// Sends `ERR <why>` and counts it. The caller decides whether the
/// connection survives: after the handshake it always does (the bad line
/// was fully consumed, so framing is intact); before it, it closes.
fn reject(shared: &Shared, writer: &mut FaultyTransport, why: String) {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    let _ = send(writer, &ToClient::Err { message: why });
}

/// One client connection, handled on its own thread until the client
/// leaves, breaks the handshake, or shutdown lands. After the handshake
/// a rejected request (`ERR`) leaves the connection usable; all other
/// failure modes converge on closing this socket. The server and its
/// other connections are unaffected either way.
fn serve_client(stream: TcpStream, shared: &Shared, options: &ServeOptions) {
    let _ = stream.set_nodelay(true);
    let Ok(stream) = FaultyTransport::from_plan(stream, options.chaos.as_ref(), Role::Server)
    else {
        return;
    };
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(stream);
    let mut greeted = false;

    loop {
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let message = match ToServer::parse(&line) {
            Ok(message) => message,
            Err(why) => {
                // Unknown verb / malformed line: the line was consumed
                // whole, so mid-session the connection stays usable.
                reject(shared, &mut writer, why);
                if greeted {
                    continue;
                }
                return;
            }
        };
        if !greeted {
            let ToServer::Hello { .. } = message else {
                reject(shared, &mut writer, format!("expected HELLO, got `{line}`"));
                return;
            };
            let live = shared.live();
            let hello = ToClient::Hello {
                version: live.version,
                scope: live.snapshot.scope(),
                states: live.snapshot.states(),
                tables: live.snapshot.num_tables(),
            };
            if send(&mut writer, &hello).is_err() {
                return;
            }
            greeted = true;
            continue;
        }
        match message {
            ToServer::Hello { .. } => {
                reject(shared, &mut writer, "unexpected mid-session HELLO".into());
            }
            ToServer::Decide { queries } => {
                // One clone for the whole batch: every query is answered
                // from exactly this version, torn-free by construction.
                let live = shared.live();
                match decide_batch(&live.snapshot, shared.states, &queries) {
                    Ok(modes) => {
                        shared
                            .decisions
                            .fetch_add(modes.len() as u64, Ordering::Relaxed);
                        shared.batches.fetch_add(1, Ordering::Relaxed);
                        let reply = ToClient::Modes {
                            version: live.version,
                            modes,
                        };
                        if send(&mut writer, &reply).is_err() {
                            return;
                        }
                    }
                    Err(why) => {
                        // A bad query rejects the batch, not the client.
                        reject(shared, &mut writer, why);
                    }
                }
            }
            ToServer::Swap { path } => match install_snapshot(shared, &path) {
                Ok((version, scope, tables)) => {
                    let reply = ToClient::Swapped {
                        version,
                        scope,
                        tables,
                    };
                    if send(&mut writer, &reply).is_err() {
                        return;
                    }
                }
                Err(why) => {
                    // A failed swap is not a protocol violation: the old
                    // table stays live and the client may retry.
                    reject(shared, &mut writer, why);
                }
            },
            ToServer::Stat => {
                let reply = ToClient::Stat {
                    version: shared.live().version,
                    decisions: shared.decisions.load(Ordering::Relaxed),
                    batches: shared.batches.load(Ordering::Relaxed),
                    swaps: shared.swaps.load(Ordering::Relaxed),
                    clients: shared.clients.load(Ordering::Relaxed),
                    errors: shared.errors.load(Ordering::Relaxed),
                };
                if send(&mut writer, &reply).is_err() {
                    return;
                }
            }
            ToServer::Shutdown => {
                let _ = send(&mut writer, &ToClient::Bye);
                shared.shutdown.store(true, Ordering::Release);
                return;
            }
        }
    }
}

/// Answers one batch from one snapshot. Every query is validated before
/// dispatch so a bad query cannot panic the handler.
fn decide_batch(
    snapshot: &FrozenSnapshot,
    states: usize,
    queries: &[Query],
) -> Result<Vec<u8>, String> {
    let mut modes = Vec::with_capacity(queries.len());
    for q in queries {
        if q.state as usize >= states {
            return Err(format!(
                "query `{q}`: state {} out of range (snapshot covers {states})",
                q.state
            ));
        }
        let available = ModeSet::from_bits(q.mask);
        let mode = snapshot
            .decide(
                AccelInstanceId(q.instance),
                q.kind.map(AccelKindId),
                q.state as usize,
                available,
            )
            .ok_or_else(|| format!("query `{q}`: empty availability mask"))?;
        modes.push(mode.index() as u8);
    }
    Ok(modes)
}

/// Loads, parses and atomically installs a new snapshot. Reading and
/// parsing happen outside the lock; the write guard then serialises the
/// version bump and the assignment against other swaps and readers.
fn install_snapshot(
    shared: &Shared,
    path: &str,
) -> Result<(u64, cohmeleon_core::AgentScope, usize), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("swap: cannot read `{path}`: {e}"))?;
    let snapshot =
        FrozenSnapshot::parse(&text, shared.states).map_err(|e| format!("swap: `{path}`: {e}"))?;
    let scope = snapshot.scope();
    let tables = snapshot.num_tables();
    let mut live = shared.live.write().unwrap_or_else(PoisonError::into_inner);
    let version = live.version + 1;
    *live = Arc::new(TableVersion { version, snapshot });
    shared.swaps.fetch_add(1, Ordering::Relaxed);
    Ok((version, scope, tables))
}
