//! Wire-level pieces shared by the server and the client: the stream
//! abstraction over TCP/unix sockets, a timeout-aware line reader, and
//! the typed error both sides speak.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Longest accepted request/response line, in bytes. A line past this is
/// a protocol violation (or a hostile peer), not a big query.
pub const MAX_LINE: usize = 1 << 20;

/// Most bytes of query lines (newlines included) one `BATCH` body may
/// carry: 1 KiB per line at the default `max_batch` of 65 536. The server
/// buffers a body whole before answering, so without a cap one peer
/// could make it hold `max_batch` lines of up to `MAX_LINE` each.
pub const MAX_BATCH_BYTES: usize = 64 << 20;

/// Evaluation mode of a `BATCH` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `evaluate_exact` semantics: needs a microdata-backed release.
    Exact,
    /// The paper's Section 6 anatomy estimator.
    Estimate,
}

impl Mode {
    /// The wire keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Exact => "exact",
            Mode::Estimate => "estimate",
        }
    }

    /// Parse the wire keyword.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "exact" => Some(Mode::Exact),
            "estimate" => Some(Mode::Estimate),
            _ => None,
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything that can go wrong on a client round trip.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server refused the batch under admission control.
    Busy {
        /// Batches in flight when the request arrived.
        in_flight: u64,
        /// The server's admission limit.
        max: u64,
    },
    /// The server answered `ERR <message>`.
    Server(String),
    /// The peer broke the wire grammar (or went silent past a timeout).
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Busy { in_flight, max } => {
                write!(f, "server busy: {in_flight}/{max} batches in flight")
            }
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// A duplex byte stream the protocol can run over. Object-safe so the
/// server and client handle TCP and unix sockets uniformly.
pub trait Stream: Read + Write + Send {
    /// Clone the underlying socket handle (reader/writer split).
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>>;
    /// Bound blocking reads, `None` for blocking forever.
    fn set_read_timeout_opt(&self, d: Option<Duration>) -> io::Result<()>;
}

impl Stream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout_opt(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(d)
    }
}

#[cfg(unix)]
impl Stream for UnixStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout_opt(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(d)
    }
}

/// Connect to a server address: `unix:PATH` or `HOST:PORT`.
pub fn connect_stream(addr: &str) -> io::Result<Box<dyn Stream>> {
    if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            return Ok(Box::new(UnixStream::connect(path)?));
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
    }
    Ok(Box::new(TcpStream::connect(addr)?))
}

/// What one attempt to pull a line off the wire produced.
#[derive(Debug)]
pub enum LineEvent {
    /// A complete line, `\n` (and any trailing `\r`) stripped.
    Line(String),
    /// The peer closed the stream.
    Eof,
    /// The read timed out; any partial line stays buffered, so the next
    /// call resumes where this one stopped.
    TimedOut,
}

/// A line reader that survives read timeouts without losing buffered
/// bytes — `BufReader::read_line` cannot promise that, and the server
/// needs timeouts to notice shutdown while a connection sits idle.
pub struct LineReader {
    stream: Box<dyn Stream>,
    buf: Vec<u8>,
    /// Bytes of `buf` already returned as lines.
    consumed: usize,
}

impl LineReader {
    /// Wrap `stream`; reads are pulled in 64 KiB chunks.
    pub fn new(stream: Box<dyn Stream>) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            consumed: 0,
        }
    }

    fn take_line(&mut self) -> Option<io::Result<String>> {
        let nl = self.buf[self.consumed..].iter().position(|&b| b == b'\n')?;
        let end = self.consumed + nl;
        let line = &self.buf[self.consumed..end];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let out = match std::str::from_utf8(line) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "non-UTF-8 line on the wire",
            )),
        };
        self.consumed = end + 1;
        // Reclaim the consumed prefix once it dominates the buffer.
        if self.consumed > 4096 && self.consumed * 2 > self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Some(out)
    }

    /// Pull the next line, a timeout, or EOF off the stream.
    pub fn next_line(&mut self) -> io::Result<LineEvent> {
        loop {
            if let Some(line) = self.take_line() {
                return line.map(LineEvent::Line);
            }
            if self.buf.len() - self.consumed > MAX_LINE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "line exceeds the protocol's 1 MiB cap",
                ));
            }
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(LineEvent::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(LineEvent::TimedOut);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn mode_round_trips() {
        for m in [Mode::Exact, Mode::Estimate] {
            assert_eq!(Mode::parse(m.as_str()), Some(m));
        }
        assert_eq!(Mode::parse("approximate"), None);
    }

    #[test]
    fn line_reader_splits_and_survives_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"alpha\nbe").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(120));
            s.write_all(b"ta\r\n").unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let mut rd = LineReader::new(Box::new(conn));
        match rd.next_line().unwrap() {
            LineEvent::Line(l) => assert_eq!(l, "alpha"),
            other => panic!("expected line, got {other:?}"),
        }
        // The partial "be" is buffered across however many timeouts the
        // sender's pause produces, then completes as "beta".
        let mut timeouts = 0;
        loop {
            match rd.next_line().unwrap() {
                LineEvent::TimedOut => timeouts += 1,
                LineEvent::Line(l) => {
                    assert_eq!(l, "beta");
                    break;
                }
                LineEvent::Eof => panic!("unexpected EOF"),
            }
        }
        assert!(timeouts >= 1, "the pause should surface as a timeout");
        match rd.next_line().unwrap() {
            LineEvent::Eof => {}
            other => panic!("expected EOF, got {other:?}"),
        }
        writer.join().unwrap();
    }
}
