//! The client half: a blocking connection handle and a [`Policy`] adapter
//! that outsources decisions to a server.
//!
//! [`ServeClient`] is the low-level handle — connect, handshake, then one
//! request/one reply per call. [`RemotePolicy`] wraps a client so a whole
//! simulation can run with its decide phase served over the network: it
//! senses state exactly like
//! [`FrozenPolicy`](cohmeleon_core::FrozenPolicy) and ships the encoded
//! index in a single-query batch, so a run driven by it is bit-identical
//! to local frozen dispatch on the same table.

use std::io::{self, Write};
use std::time::Duration;

use cohmeleon_chaos::{connect_with_retry, sanitize_name, FaultPlan, FaultyTransport, Role};
use cohmeleon_core::modes::{CoherenceMode, ModeSet};
use cohmeleon_core::policy::PolicyComplexity;
use cohmeleon_core::router::Topology;
use cohmeleon_core::snapshot::SystemSnapshot;
use cohmeleon_core::space::StateSpace;
use cohmeleon_core::state::State;
use cohmeleon_core::{AccelInstanceId, AccelKindId, AgentScope, Decision, Policy};

use crate::protocol::{LineReader, Query, ToClient, ToServer};

/// How long [`ServeClient::connect`] keeps retrying a refused connection
/// (the server may still be binding when clients launch).
const CONNECT_WINDOW: Duration = Duration::from_secs(10);

/// A blocking connection to a decision server.
///
/// One request, one reply; an `ERR` reply surfaces as
/// [`io::ErrorKind::InvalidData`]. After the handshake the server keeps
/// the connection open across `ERR`s, so the handle stays usable — the
/// offending request was consumed whole and framing is intact.
pub struct ServeClient {
    reader: LineReader<FaultyTransport>,
    writer: FaultyTransport,
    version: u64,
    scope: AgentScope,
    states: usize,
    tables: usize,
}

impl ServeClient {
    /// Connects to `addr`, retrying refused connections for a few
    /// seconds, and completes the `HELLO` handshake as `name`.
    ///
    /// # Errors
    ///
    /// Connection failure after the retry window, or a handshake that is
    /// not a well-formed server `HELLO`.
    pub fn connect(addr: &str, name: &str) -> io::Result<ServeClient> {
        ServeClient::connect_with(addr, name, None)
    }

    /// [`connect`](Self::connect) with optional seeded fault injection:
    /// when a plan is given the connection is wrapped in a
    /// [`FaultyTransport`] playing [`Role::Client`] before the
    /// handshake, so even the `HELLO` exchange runs under chaos.
    ///
    /// # Errors
    ///
    /// As for [`connect`](Self::connect), plus injected faults (resets,
    /// stalls) surfacing as transport errors.
    pub fn connect_with(
        addr: &str,
        name: &str,
        chaos: Option<&FaultPlan>,
    ) -> io::Result<ServeClient> {
        let stream = connect_with_retry(addr, CONNECT_WINDOW)?;
        stream.set_nodelay(true)?;
        let stream = FaultyTransport::from_plan(stream, chaos, Role::Client)?;
        let mut writer = stream.try_clone()?;
        let mut reader = LineReader::new(stream);
        let hello = ToServer::Hello {
            name: sanitize_name(name),
        };
        writer.write_all(format!("{}\n", hello.to_line()).as_bytes())?;
        let reply = read_reply(&mut reader)?;
        let ToClient::Hello {
            version,
            scope,
            states,
            tables,
        } = reply
        else {
            return Err(protocol_error(format!(
                "expected server HELLO, got `{}`",
                reply.to_line()
            )));
        };
        Ok(ServeClient {
            reader,
            writer,
            version,
            scope,
            states,
            tables,
        })
    }

    /// The table version the server last reported to this client.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The routing scope of the table live at handshake time.
    pub fn scope(&self) -> AgentScope {
        self.scope
    }

    /// The state cardinality queries must respect.
    pub fn states(&self) -> usize {
        self.states
    }

    /// The number of agent tables in the snapshot live at handshake time.
    pub fn tables(&self) -> usize {
        self.tables
    }

    fn request(&mut self, message: &ToServer) -> io::Result<ToClient> {
        // Replies to chaos-duplicated deliveries of an earlier DECIDE
        // arrive before this request's reply; drain any the caller has
        // not already consumed so request/reply framing stays aligned.
        self.drain_duplicate_replies()?;
        self.writer
            .write_all(format!("{}\n", message.to_line()).as_bytes())?;
        read_reply(&mut self.reader)
    }

    /// Reads (and returns) the extra replies the server owes this
    /// connection because a chaos transport duplicated request lines in
    /// flight. Without fault injection this is always empty. A caller
    /// that wants to *verify* duplicate deliveries calls this right
    /// after [`decide_batch`](Self::decide_batch); otherwise the next
    /// request drains leftovers silently.
    ///
    /// # Errors
    ///
    /// Transport failure or an unparseable reply line (`ERR` replies are
    /// returned as values here, not errors — a duplicated request may
    /// legitimately be re-rejected).
    pub fn drain_duplicate_replies(&mut self) -> io::Result<Vec<ToClient>> {
        let owed = self.writer.take_pending_dup_replies();
        let mut extra = Vec::with_capacity(owed);
        for _ in 0..owed {
            let line = self.reader.read_line()?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
            })?;
            extra.push(ToClient::parse(&line).map_err(protocol_error)?);
        }
        Ok(extra)
    }

    /// Sends one `DECIDE` batch; returns the table version that answered
    /// it and one mode per query, in query order.
    ///
    /// # Errors
    ///
    /// Transport failure, an `ERR` reply (invalid query), or a malformed
    /// response.
    pub fn decide_batch(&mut self, queries: &[Query]) -> io::Result<(u64, Vec<CoherenceMode>)> {
        let reply = self.request(&ToServer::Decide {
            queries: queries.to_vec(),
        })?;
        let ToClient::Modes { version, modes } = reply else {
            return Err(protocol_error(format!(
                "expected MODES, got `{}`",
                reply.to_line()
            )));
        };
        if modes.len() != queries.len() {
            return Err(protocol_error(format!(
                "sent {} queries, got {} modes",
                queries.len(),
                modes.len()
            )));
        }
        let modes = modes
            .iter()
            .map(|&m| {
                if (m as usize) < CoherenceMode::COUNT {
                    Ok(CoherenceMode::from_index(m as usize))
                } else {
                    Err(protocol_error(format!("mode index {m} out of range")))
                }
            })
            .collect::<io::Result<Vec<_>>>()?;
        self.version = version;
        Ok((version, modes))
    }

    /// Asks the server to install the snapshot at `path` (a server-side
    /// filesystem path); returns the new version, scope and table count.
    ///
    /// # Errors
    ///
    /// Transport failure or an `ERR` reply (the old table stays live).
    pub fn swap(&mut self, path: &str) -> io::Result<(u64, AgentScope, usize)> {
        let reply = self.request(&ToServer::Swap { path: path.into() })?;
        let ToClient::Swapped {
            version,
            scope,
            tables,
        } = reply
        else {
            return Err(protocol_error(format!(
                "expected SWAPPED, got `{}`",
                reply.to_line()
            )));
        };
        self.version = version;
        Ok((version, scope, tables))
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// Transport failure or a malformed response.
    pub fn stat(&mut self) -> io::Result<ServerStat> {
        let reply = self.request(&ToServer::Stat)?;
        let ToClient::Stat {
            version,
            decisions,
            batches,
            swaps,
            clients,
            errors,
        } = reply
        else {
            return Err(protocol_error(format!(
                "expected STAT, got `{}`",
                reply.to_line()
            )));
        };
        Ok(ServerStat {
            version,
            decisions,
            batches,
            swaps,
            clients,
            errors,
        })
    }

    /// Asks the server to stop once its connections drain.
    ///
    /// # Errors
    ///
    /// Transport failure or a reply other than `BYE`.
    pub fn shutdown(mut self) -> io::Result<()> {
        let reply = self.request(&ToServer::Shutdown)?;
        match reply {
            ToClient::Bye => Ok(()),
            other => Err(protocol_error(format!(
                "expected BYE, got `{}`",
                other.to_line()
            ))),
        }
    }
}

/// One `STAT` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStat {
    /// The live table version.
    pub version: u64,
    /// Total queries answered.
    pub decisions: u64,
    /// Total `DECIDE` batches answered.
    pub batches: u64,
    /// Snapshots installed after the initial one.
    pub swaps: u64,
    /// Clients ever accepted.
    pub clients: u64,
    /// `ERR` replies sent (rejected requests and failed swaps).
    pub errors: u64,
}

fn read_reply(reader: &mut LineReader<FaultyTransport>) -> io::Result<ToClient> {
    let line = reader
        .read_line()?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"))?;
    let reply = ToClient::parse(&line).map_err(protocol_error)?;
    if let ToClient::Err { message } = reply {
        return Err(protocol_error(format!(
            "server rejected request: {message}"
        )));
    }
    Ok(reply)
}

fn protocol_error(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A [`Policy`] whose decide phase is served remotely.
///
/// Senses and encodes exactly like
/// [`FrozenPolicy`](cohmeleon_core::FrozenPolicy) — `State::from_snapshot`
/// then [`StateSpace::encode_sensed`] — and ships the encoded index in a
/// one-query `DECIDE` batch. On a server holding the same frozen snapshot
/// the returned mode is bit-identical to local dispatch, so a whole
/// simulation driven by this policy reproduces the local run exactly
/// (pinned by the `remote_policy` integration test).
///
/// # Panics
///
/// The [`Policy`] trait has no fallible decide, so a transport failure
/// mid-simulation panics with the underlying error. Engines that need to
/// survive a dead server must check connectivity before starting a run.
pub struct RemotePolicy {
    client: ServeClient,
    space: StateSpace,
    topology: Topology,
}

impl RemotePolicy {
    /// Wraps a connected client with the state space the server's table
    /// was trained in.
    ///
    /// # Panics
    ///
    /// If `space`'s cardinality differs from the server's advertised
    /// state count — queries would be systematically out of range.
    pub fn new(client: ServeClient, space: StateSpace) -> RemotePolicy {
        assert_eq!(
            space.cardinality(),
            client.states(),
            "state space cardinality must match the server's state count"
        );
        RemotePolicy {
            client,
            space,
            topology: Topology::default(),
        }
    }

    /// The wrapped connection (e.g. to issue `STAT` or `SHUTDOWN` after a
    /// run).
    pub fn into_client(self) -> ServeClient {
        self.client
    }
}

impl Policy for RemotePolicy {
    fn name(&self) -> String {
        "remote".to_owned()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        accel: AccelInstanceId,
    ) -> Decision {
        assert!(
            !available.is_empty(),
            "policy invoked with an empty set of available coherence modes"
        );
        let state = State::from_snapshot(snapshot);
        let state_index = self.space.encode_sensed(snapshot, &state);
        let query = Query {
            instance: accel.0,
            kind: self.topology.kind_of(accel).map(|k| k.0),
            state: state_index as u32,
            mask: available.bits(),
        };
        let (_version, modes) = self
            .client
            .decide_batch(&[query])
            .expect("remote decide failed");
        Decision {
            mode: modes[0],
            state,
            state_index,
        }
    }

    fn complexity(&self) -> PolicyComplexity {
        // Must match `FrozenPolicy` so engine overhead accounting is
        // identical between local and remote dispatch.
        PolicyComplexity::Heuristic
    }

    fn bind_topology(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        self.topology.bind(topology);
    }
}
