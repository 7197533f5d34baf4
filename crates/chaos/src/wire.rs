//! What the fleet and serve wire protocols share besides the transport:
//! the connecting side's retried connect and one-token peer name, line
//! framing that survives read timeouts, and the wake-up call that ends a
//! blocking accept loop.

use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Connects to `addr`, retrying a failed connect for up to `window`: the
/// queen or server may still be binding when a worker or client launches.
/// Retries come in 20 ms slices capped at the remaining window, so the
/// window bounds how long the caller lingers instead of overshooting it
/// by a full retry period.
///
/// # Errors
///
/// The last connect error once the window has passed.
pub fn connect_with_retry(addr: &str, window: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + window;
    let slice = Duration::from_millis(20);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(e);
                }
                std::thread::sleep(slice.min(deadline - now));
            }
        }
    }
}

/// Replaces whitespace in a worker or client name so it stays a single
/// token on the wire.
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '-' } else { c })
        .collect()
}

/// Timeout-safe line framing over any [`Read`].
///
/// `BufReader::read_line` cannot be used on a socket with a read timeout:
/// on `Err` its UTF-8 guard discards whatever partial bytes were already
/// appended, so a timeout mid-line silently eats the line's prefix. This
/// reader keeps partial data in its own buffer across
/// [`WouldBlock`](io::ErrorKind::WouldBlock)/[`TimedOut`](io::ErrorKind::TimedOut)
/// errors — the queen and the server poll their sockets with a short read
/// timeout so they can notice shutdown — and resumes each line exactly
/// where it left off.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> LineReader<R> {
        LineReader {
            inner,
            buf: Vec::new(),
        }
    }

    /// Reads the next `\n`-terminated line, without the newline (a
    /// trailing `\r` is also stripped). `Ok(None)` is end-of-stream; any
    /// unterminated bytes at EOF are a torn line from a dying peer and
    /// are dropped, exactly as the checkpoint scan drops a torn tail.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error; a line that is not UTF-8 is
    /// `InvalidData`. On
    /// [`WouldBlock`](io::ErrorKind::WouldBlock)/[`TimedOut`](io::ErrorKind::TimedOut)
    /// the partial line stays buffered; call again to continue it.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let line = String::from_utf8(line).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 protocol line")
                })?;
                return Ok(Some(line));
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Unblocks a thread parked in [`TcpListener::accept`] on one listener:
/// [`wake`](Self::wake) connects to the listener's own port, over
/// loopback when the listener is bound to an unspecified address.
///
/// The connection carries nothing. An accept loop that re-checks its exit
/// condition after every accept needs no other signal, so the thread
/// that makes the condition true calls `wake` once.
#[derive(Debug, Clone, Copy)]
pub struct AcceptWaker(SocketAddr);

impl AcceptWaker {
    /// The waker for `listener`.
    ///
    /// # Errors
    ///
    /// Propagates [`TcpListener::local_addr`] failure.
    pub fn new(listener: &TcpListener) -> io::Result<AcceptWaker> {
        let mut addr = listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(AcceptWaker(addr))
    }

    /// Connects once and hangs up. A failed connect is ignored: the
    /// listener is gone, so nothing is parked on it.
    pub fn wake(&self) {
        let _ = TcpStream::connect(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that yields its scripted results one at a time.
    struct Scripted(Vec<io::Result<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            match self.0.remove(0) {
                Ok(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Err(e) => Err(e),
            }
        }
    }

    #[test]
    fn line_reader_keeps_partial_lines_across_timeouts() {
        let timeout = || io::Error::new(io::ErrorKind::WouldBlock, "timed out");
        let mut reader = LineReader::new(Scripted(vec![
            Ok(b"HEL".to_vec()),
            Err(timeout()),
            Ok(b"LO fleet/1 a\nLEA".to_vec()),
            Err(timeout()),
            Ok(b"SE\r\n".to_vec()),
        ]));
        // First read hits the timeout mid-line; the prefix must survive.
        assert_eq!(
            reader.read_line().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(reader.read_line().unwrap().unwrap(), "HELLO fleet/1 a");
        assert_eq!(
            reader.read_line().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(reader.read_line().unwrap().unwrap(), "LEASE");
        assert_eq!(reader.read_line().unwrap(), None);
    }

    #[test]
    fn line_reader_drops_torn_tail_at_eof() {
        let mut reader = LineReader::new(Scripted(vec![Ok(b"DONE 3\nRECORD 3 {\"to".to_vec())]));
        assert_eq!(reader.read_line().unwrap().unwrap(), "DONE 3");
        assert_eq!(reader.read_line().unwrap(), None);
    }

    #[test]
    fn line_reader_rejects_non_utf8() {
        let mut reader = LineReader::new(Scripted(vec![Ok(b"\xff\n".to_vec())]));
        assert_eq!(
            reader.read_line().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn waker_unblocks_an_accept_on_an_unspecified_address() {
        let listener = TcpListener::bind("0.0.0.0:0").expect("bind");
        let waker = AcceptWaker::new(&listener).expect("waker");
        assert!(waker.0.ip().is_loopback());
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| listener.accept().map(|_| ()));
            waker.wake();
            parked.join().expect("accept thread").expect("woken accept");
        });
    }
}
