//! The fault-injecting transport: a `Read + Write` wrapper around a
//! `TcpStream` that consults its connection's RNG stream on every call.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::plan::{ChaosConfig, FaultEvent, FaultKind, Role};

/// A socket wrapper that either passes straight through (the `None`
/// production path — no lock, no RNG, no logging) or injects faults from
/// a [`FaultPlan`](crate::FaultPlan)'s deterministic schedule.
///
/// Clones made with [`try_clone`](Self::try_clone) share the
/// connection's fault state, so the usual reader-half/writer-half split
/// both draw from (and advance) one op counter — the op index in a fault
/// coordinate counts *all* transport calls on the connection, reads and
/// writes alike, in the order the connection made them.
#[derive(Debug)]
pub struct FaultyTransport {
    stream: TcpStream,
    chaos: Option<Arc<Mutex<ConnState>>>,
}

/// The shared per-connection fault state.
#[derive(Debug)]
struct ConnState {
    rng: SmallRng,
    seed: u64,
    conn: u64,
    role: Role,
    config: ChaosConfig,
    /// Transport calls made on this connection so far (reads + writes).
    op: u64,
    /// Cumulative payload bytes the caller asked to write.
    written: u64,
    /// Cumulative bytes read.
    read: u64,
    /// The planned abrupt reset, if this connection drew one.
    reset: Option<ResetPoint>,
    /// Once the reset fires every further call errors `ConnectionReset`.
    tripped: bool,
    /// A reorder-held line awaiting the next written line.
    held: Option<Vec<u8>>,
    /// Duplicated request lines whose extra replies the peer still owes
    /// us (serve clients drain these to keep request/reply framing).
    pending_dup_replies: usize,
    log: Arc<Mutex<Vec<FaultEvent>>>,
}

#[derive(Debug, Clone, Copy)]
struct ResetPoint {
    offset: u64,
    on_write: bool,
}

impl ConnState {
    fn draw(&mut self, permille: u16) -> bool {
        self.rng.next_u64() % 1000 < u64::from(permille)
    }

    fn draw_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.rng.next_u64() % bound
    }

    fn record(&self, op: u64, kind: FaultKind) {
        self.log.lock().expect("chaos fault log").push(FaultEvent {
            seed: self.seed,
            conn: self.conn,
            op,
            role: self.role,
            kind,
        });
    }
}

/// What one chaotic `write` call should actually do, decided under the
/// state lock, performed outside it.
struct WriteScript {
    /// `Some(keep)` — write the first `keep` bytes, then shut the socket
    /// down and error (the planned reset tearing the line in flight).
    reset_keep: Option<usize>,
    /// The line was captured for reordering; report success, send nothing.
    hold: bool,
    /// Chunk boundaries for a split write (empty — single write).
    cuts: Vec<usize>,
    /// Delay between split chunks.
    delay: Duration,
    /// Deliver the buffer a second time after the first.
    duplicate: bool,
    /// A previously held line to deliver after this buffer.
    flush_held: Option<Vec<u8>>,
}

/// What one chaotic `read` call should do before touching the socket.
enum ReadScript {
    /// The planned reset fires: shut down and error.
    Reset,
    /// Sleep, then surface a synthetic `WouldBlock` (polling roles).
    Synthetic(Duration),
    /// Sleep, then perform the real read (blocking roles).
    Sleep(Duration),
    /// Just read.
    Normal,
}

fn reset_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        "chaos: injected connection reset",
    )
}

impl FaultyTransport {
    /// The production path: a plain passthrough around the socket.
    pub fn direct(stream: TcpStream) -> FaultyTransport {
        FaultyTransport {
            stream,
            chaos: None,
        }
    }

    /// Wraps `stream` with fault injection; called by
    /// [`FaultPlan::wrap`](crate::FaultPlan::wrap).
    pub(crate) fn chaos(
        stream: TcpStream,
        seed: u64,
        conn: u64,
        role: Role,
        config: ChaosConfig,
        log: Arc<Mutex<Vec<FaultEvent>>>,
    ) -> io::Result<FaultyTransport> {
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (conn.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let reset = if rng.next_u64() % 1000 < u64::from(config.reset) {
            Some(ResetPoint {
                offset: rng.next_u64() % config.reset_window.max(1),
                on_write: rng.next_u64() % 2 == 0,
            })
        } else {
            None
        };
        Ok(FaultyTransport {
            stream,
            chaos: Some(Arc::new(Mutex::new(ConnState {
                rng,
                seed,
                conn,
                role,
                config,
                op: 0,
                written: 0,
                read: 0,
                reset,
                tripped: false,
                held: None,
                pending_dup_replies: 0,
                log,
            }))),
        })
    }

    /// Wraps per the plan if one is given, else the direct passthrough —
    /// the one-liner every call site uses.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::wrap`](crate::FaultPlan::wrap) failure.
    pub fn from_plan(
        stream: TcpStream,
        plan: Option<&crate::FaultPlan>,
        role: Role,
    ) -> io::Result<FaultyTransport> {
        match plan {
            Some(plan) => plan.wrap(stream, role),
            None => Ok(FaultyTransport::direct(stream)),
        }
    }

    /// A second handle to the same connection (the reader/writer split),
    /// sharing the fault state and op counter.
    ///
    /// # Errors
    ///
    /// Propagates `TcpStream::try_clone` failure.
    pub fn try_clone(&self) -> io::Result<FaultyTransport> {
        Ok(FaultyTransport {
            stream: self.stream.try_clone()?,
            chaos: self.chaos.clone(),
        })
    }

    /// Delegates to [`TcpStream::set_nodelay`].
    ///
    /// # Errors
    ///
    /// As for [`TcpStream::set_nodelay`].
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.stream.set_nodelay(nodelay)
    }

    /// Delegates to [`TcpStream::set_read_timeout`].
    ///
    /// # Errors
    ///
    /// As for [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Delegates to [`TcpStream::shutdown`].
    ///
    /// # Errors
    ///
    /// As for [`TcpStream::shutdown`].
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.stream.shutdown(how)
    }

    /// Takes (and clears) the count of extra replies the peer owes this
    /// connection because request lines were duplicated in flight. The
    /// direct path always answers 0.
    pub fn take_pending_dup_replies(&self) -> usize {
        match &self.chaos {
            Some(state) => {
                let mut s = state.lock().expect("chaos connection state");
                std::mem::take(&mut s.pending_dup_replies)
            }
            None => 0,
        }
    }

    fn chaotic_write(&mut self, state: &Arc<Mutex<ConnState>>, buf: &[u8]) -> io::Result<usize> {
        let script = {
            let mut s = state.lock().expect("chaos connection state");
            if s.tripped {
                return Err(reset_error());
            }
            let op = s.op;
            s.op += 1;
            let config = s.config;
            if let Some(reset) = s.reset {
                if reset.on_write && s.written + buf.len() as u64 > reset.offset {
                    let keep = (reset.offset.saturating_sub(s.written)) as usize;
                    s.tripped = true;
                    s.record(
                        op,
                        FaultKind::Reset {
                            offset: reset.offset,
                            on_write: true,
                        },
                    );
                    Some(WriteScript {
                        reset_keep: Some(keep.min(buf.len())),
                        hold: false,
                        cuts: Vec::new(),
                        delay: Duration::ZERO,
                        duplicate: false,
                        flush_held: None,
                    })
                } else {
                    None
                }
            } else {
                None
            }
            .unwrap_or_else(|| {
                s.written += buf.len() as u64;
                // Dup/reorder decisions only apply to a buffer that is
                // exactly one complete line — which is how both
                // protocols write.
                let single_line =
                    buf.last() == Some(&b'\n') && buf.iter().filter(|&&b| b == b'\n').count() == 1;
                if single_line
                    && s.held.is_none()
                    && s.role.reorderable(buf)
                    && s.draw(config.reorder)
                {
                    s.held = Some(buf.to_vec());
                    s.record(op, FaultKind::HoldLine { bytes: buf.len() });
                    return WriteScript {
                        reset_keep: None,
                        hold: true,
                        cuts: Vec::new(),
                        delay: Duration::ZERO,
                        duplicate: false,
                        flush_held: None,
                    };
                }
                let duplicate = single_line && s.role.duplicable(buf) && s.draw(config.duplicate);
                if duplicate {
                    if s.role.dup_earns_reply(buf) {
                        s.pending_dup_replies += 1;
                    }
                    s.record(op, FaultKind::DuplicateLine { bytes: buf.len() });
                }
                let mut cuts = Vec::new();
                let mut delay = Duration::ZERO;
                if buf.len() >= 2 && s.draw(config.split_write) {
                    let parts = 2 + s.draw_range(3) as usize;
                    for _ in 0..parts - 1 {
                        cuts.push(1 + s.draw_range(buf.len() as u64 - 1) as usize);
                    }
                    cuts.sort_unstable();
                    cuts.dedup();
                    delay = Duration::from_micros(s.draw_range(config.max_split_delay_us + 1));
                    s.record(
                        op,
                        FaultKind::SplitWrite {
                            parts: cuts.len() + 1,
                            bytes: buf.len(),
                        },
                    );
                }
                let flush_held = if single_line && s.held.is_some() {
                    let held = s.held.take();
                    if let Some(held) = &held {
                        s.record(op, FaultKind::FlushHeld { bytes: held.len() });
                    }
                    held
                } else {
                    None
                };
                WriteScript {
                    reset_keep: None,
                    hold: false,
                    cuts,
                    delay,
                    duplicate,
                    flush_held,
                }
            })
        };

        // Perform the socket work outside the state lock so injected
        // delays never block the connection's other half on bookkeeping.
        if let Some(keep) = script.reset_keep {
            let _ = self.stream.write_all(&buf[..keep]);
            let _ = self.stream.flush();
            let _ = self.stream.shutdown(Shutdown::Both);
            return Err(reset_error());
        }
        if script.hold {
            return Ok(buf.len());
        }
        if script.cuts.is_empty() {
            self.stream.write_all(buf)?;
        } else {
            let mut start = 0;
            for &cut in &script.cuts {
                self.stream.write_all(&buf[start..cut])?;
                self.stream.flush()?;
                std::thread::sleep(script.delay);
                start = cut;
            }
            self.stream.write_all(&buf[start..])?;
        }
        if script.duplicate {
            self.stream.write_all(buf)?;
        }
        if let Some(held) = script.flush_held {
            self.stream.write_all(&held)?;
        }
        Ok(buf.len())
    }

    fn chaotic_read(&mut self, state: &Arc<Mutex<ConnState>>, buf: &mut [u8]) -> io::Result<usize> {
        let script = {
            let mut s = state.lock().expect("chaos connection state");
            if s.tripped {
                return Err(reset_error());
            }
            let op = s.op;
            s.op += 1;
            let config = s.config;
            let reset_point = s.reset;
            match reset_point {
                Some(reset) if !reset.on_write && s.read >= reset.offset => {
                    s.tripped = true;
                    s.record(
                        op,
                        FaultKind::Reset {
                            offset: reset.offset,
                            on_write: false,
                        },
                    );
                    ReadScript::Reset
                }
                _ if s.draw(config.stall) => {
                    let ms = 1 + s.draw_range(config.max_stall_ms.max(1));
                    let synthetic = s.role.synthetic_stall();
                    s.record(op, FaultKind::StallRead { ms, synthetic });
                    if synthetic {
                        ReadScript::Synthetic(Duration::from_millis(ms))
                    } else {
                        ReadScript::Sleep(Duration::from_millis(ms))
                    }
                }
                _ => ReadScript::Normal,
            }
        };
        match script {
            ReadScript::Reset => {
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(reset_error());
            }
            ReadScript::Synthetic(delay) => {
                std::thread::sleep(delay);
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "chaos: injected read stall",
                ));
            }
            ReadScript::Sleep(delay) => std::thread::sleep(delay),
            ReadScript::Normal => {}
        }
        let n = self.stream.read(buf)?;
        state.lock().expect("chaos connection state").read += n as u64;
        Ok(n)
    }
}

impl Read for FaultyTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.chaos.clone() {
            None => self.stream.read(buf),
            Some(state) => self.chaotic_read(&state, buf),
        }
    }
}

impl Write for FaultyTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.chaos.clone() {
            None => self.stream.write(buf),
            Some(state) => self.chaotic_write(&state, buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChaosConfig, FaultKind, FaultPlan, Role};
    use std::net::TcpListener;

    /// A connected loopback pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    fn read_all_lines(stream: TcpStream, expect: usize) -> Vec<String> {
        let mut reader = std::io::BufReader::new(stream);
        let mut lines = Vec::new();
        while lines.len() < expect {
            let mut line = String::new();
            use std::io::BufRead;
            if reader.read_line(&mut line).expect("read") == 0 {
                break;
            }
            // A tail that never got its newline is torn, not a line —
            // exactly how the protocols' LineReader treats it.
            if !line.ends_with('\n') {
                break;
            }
            lines.push(line.trim_end().to_string());
        }
        lines
    }

    fn quiet() -> ChaosConfig {
        ChaosConfig {
            split_write: 0,
            max_split_delay_us: 0,
            stall: 0,
            max_stall_ms: 1,
            reset: 0,
            reset_window: 1,
            duplicate: 0,
            reorder: 0,
        }
    }

    #[test]
    fn direct_path_is_a_plain_passthrough() {
        let (a, b) = pair();
        let mut t = FaultyTransport::direct(a);
        t.write_all(b"HELLO fleet/1 w\n").unwrap();
        assert_eq!(t.take_pending_dup_replies(), 0);
        drop(t);
        assert_eq!(read_all_lines(b, 1), vec!["HELLO fleet/1 w"]);
    }

    #[test]
    fn split_write_preserves_bytes() {
        let (a, b) = pair();
        let plan = FaultPlan::with_config(
            7,
            ChaosConfig {
                split_write: 1000,
                ..quiet()
            },
        );
        let mut t = plan.wrap(a, Role::Worker).unwrap();
        t.write_all(b"LEASE\n").unwrap();
        t.write_all(b"HELLO fleet/1 worker-0\n").unwrap();
        drop(t);
        assert_eq!(
            read_all_lines(b, 2),
            vec!["LEASE", "HELLO fleet/1 worker-0"]
        );
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::SplitWrite { .. })));
        assert_eq!(plan.fault_count(), 2);
    }

    #[test]
    fn duplicate_applies_only_to_dup_safe_lines() {
        let (a, b) = pair();
        let plan = FaultPlan::with_config(
            3,
            ChaosConfig {
                duplicate: 1000,
                ..quiet()
            },
        );
        let mut t = plan.wrap(a, Role::Worker).unwrap();
        t.write_all(b"HELLO fleet/1 w\n").unwrap(); // request/reply: never duplicated
        t.write_all(b"RECORD 1 {}\n").unwrap(); // fire-and-forget: duplicated
        drop(t);
        let lines = read_all_lines(b, 3);
        assert_eq!(lines, vec!["HELLO fleet/1 w", "RECORD 1 {}", "RECORD 1 {}"]);
        // A worker's RECORD earns no extra reply (fire-and-forget).
        assert_eq!(plan.fault_count(), 1);
    }

    #[test]
    fn duplicated_decide_counts_an_owed_reply() {
        let (a, b) = pair();
        let plan = FaultPlan::with_config(
            3,
            ChaosConfig {
                duplicate: 1000,
                ..quiet()
            },
        );
        let mut t = plan.wrap(a, Role::Client).unwrap();
        t.write_all(b"DECIDE 1 0:0:1:15\n").unwrap();
        assert_eq!(t.take_pending_dup_replies(), 1);
        assert_eq!(t.take_pending_dup_replies(), 0);
        drop(t);
        assert_eq!(
            read_all_lines(b, 2),
            vec!["DECIDE 1 0:0:1:15", "DECIDE 1 0:0:1:15"]
        );
    }

    #[test]
    fn heartbeats_reorder_behind_the_next_line() {
        let (a, b) = pair();
        let plan = FaultPlan::with_config(
            11,
            ChaosConfig {
                reorder: 1000,
                ..quiet()
            },
        );
        let mut t = plan.wrap(a, Role::Worker).unwrap();
        t.write_all(b"HEARTBEAT 4\n").unwrap();
        t.write_all(b"RECORD 4 {}\n").unwrap();
        drop(t);
        assert_eq!(read_all_lines(b, 2), vec!["RECORD 4 {}", "HEARTBEAT 4"]);
        let kinds: Vec<_> = plan.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::HoldLine { bytes: 12 },
                FaultKind::FlushHeld { bytes: 12 },
            ]
        );
    }

    #[test]
    fn write_reset_tears_the_line_and_poisons_the_connection() {
        let (a, b) = pair();
        let config = ChaosConfig {
            reset: 1000,
            reset_window: 4,
            ..quiet()
        };
        // Find a seed whose first connection resets on the write side:
        // the draw order at wrap is fire?, offset, side.
        let plan = (0..64)
            .map(|seed| FaultPlan::with_config(seed, config))
            .find(|p| {
                let (x, _y) = pair();
                let t = p.wrap(x, Role::Worker).unwrap();
                let mut probe = t.try_clone().unwrap();
                probe.write_all(b"0123456789\n").is_err()
            })
            .expect("some seed resets on write");
        let fresh = FaultPlan::with_config(plan.seed(), config);
        let mut t = fresh.wrap(a, Role::Worker).unwrap();
        let err = t.write_all(b"0123456789\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Every later call errors identically.
        assert_eq!(
            t.write_all(b"x\n").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        let mut buf = [0u8; 8];
        assert_eq!(
            t.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        // The peer sees at most the torn prefix, then EOF.
        let lines = read_all_lines(b, 1);
        assert!(lines.is_empty(), "peer saw a complete line: {lines:?}");
    }

    #[test]
    fn polling_roles_stall_as_wouldblock_blocking_roles_sleep() {
        let plan = FaultPlan::with_config(
            5,
            ChaosConfig {
                stall: 1000,
                max_stall_ms: 1,
                ..quiet()
            },
        );
        let mut buf = [0u8; 8];
        // Polling side: the stall surfaces as a synthetic WouldBlock.
        let (a, _b) = pair();
        let mut queen_side = plan.wrap(a, Role::Queen).unwrap();
        assert_eq!(
            queen_side.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        // Blocking side: the stall sleeps, then the real read proceeds.
        let (c, d) = pair();
        let mut w = FaultyTransport::direct(c);
        w.write_all(b"DONE 1\n").unwrap();
        let mut worker_side = plan.wrap(d, Role::Worker).unwrap();
        let n = worker_side.read(&mut buf).unwrap();
        assert!(n > 0);
        let events = plan.events();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            FaultKind::StallRead {
                synthetic: true,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            FaultKind::StallRead {
                synthetic: false,
                ..
            }
        )));
    }

    #[test]
    fn same_seed_same_ops_same_faults() {
        let run = |seed: u64| {
            let plan = FaultPlan::with_config(
                seed,
                ChaosConfig {
                    split_write: 300,
                    duplicate: 300,
                    reorder: 300,
                    stall: 300,
                    ..quiet()
                },
            );
            let (a, b) = pair();
            let mut t = plan.wrap(a, Role::Worker).unwrap();
            for i in 0..20 {
                t.write_all(format!("RECORD {i} {{}}\n").as_bytes())
                    .unwrap();
                t.write_all(format!("HEARTBEAT {i}\n").as_bytes()).unwrap();
            }
            drop(t);
            drop(b);
            plan.events()
        };
        let first = run(42);
        let second = run(42);
        assert_eq!(first, second);
        assert!(!first.is_empty(), "schedule injected nothing");
        assert_ne!(first, run(43));
    }
}
