//! Serving transports for [`ShardedServer`]: the JSON-lines framing, over
//! stdio (one scripted connection) and concurrent TCP (one thread per
//! connection).
//!
//! [`serve_lines`] is the one framing loop: it reads request lines, hands
//! each to [`ShardedServer::handle_line`], and writes one response line per
//! request. Request lines are capped at `MAX_REQUEST_LINE_BYTES` (32 MiB); an
//! oversized (or newline-free, hence unbounded) line is drained without
//! buffering, answered with a structured `protocol` error, and the
//! connection keeps serving.
//!
//! Every accepted TCP connection gets a thread, all threads share the one
//! [`ShardedServer`], and the per-shard admission gate (not the accept
//! loop) is what bounds concurrent work. A `shutdown` request
//! on any connection stops the accept loop; already-open connections are
//! drained before the listener returns.

use crate::ShardedServer;
use privcluster_engine::{error_value, EngineError};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest request line [`serve_lines`] buffers, in bytes. Requests carrying
/// inline points are large but bounded (a 100k-point, 10-d registration is
/// ≈ 20 MB of JSON); a *newline-free* stream is unbounded, and before this
/// cap existed one such TCP client could balloon the server's line buffer
/// until the process died. Oversized lines get a structured `protocol`
/// error response and the connection keeps serving.
const MAX_REQUEST_LINE_BYTES: usize = 32 * 1024 * 1024;

/// One bounded read from the request stream.
enum LineRead {
    /// A complete line within the cap (without its newline).
    Line(String),
    /// The line exceeded the cap; its bytes were drained and discarded.
    Oversize,
    /// End of input.
    Eof,
}

/// Reads one newline-terminated line of at most `max` bytes. Bytes beyond
/// the cap are consumed (so the stream stays line-synchronised) but never
/// buffered — memory use is bounded by `max` no matter what the peer sends.
fn read_bounded_line<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversize = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A final unterminated line still gets served (matching
            // `BufRead::lines`); an oversized one still gets its error.
            return Ok(if oversize {
                LineRead::Oversize
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if !oversize && buf.len() + newline > max {
                    oversize = true;
                    buf.clear();
                }
                if !oversize {
                    buf.extend_from_slice(&chunk[..newline]);
                }
                reader.consume(newline + 1);
                return Ok(if oversize {
                    LineRead::Oversize
                } else {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
                });
            }
            None => {
                let len = chunk.len();
                if !oversize {
                    if buf.len() + len > max {
                        oversize = true;
                        buf.clear();
                        buf.shrink_to_fit();
                    } else {
                        buf.extend_from_slice(chunk);
                    }
                }
                reader.consume(len);
            }
        }
    }
}

/// Serves newline-delimited JSON requests from `reader` through `server`,
/// writing one response line per request to `writer` and flushing after
/// each. Empty lines are skipped. Returns at end of input or after a
/// `shutdown` request; the returned bool reports whether a shutdown was
/// requested (the TCP front end uses it to stop listening).
pub fn serve_lines<R: BufRead, W: Write>(
    server: &ShardedServer,
    reader: R,
    writer: W,
) -> std::io::Result<bool> {
    serve_lines_bounded(server, reader, writer, MAX_REQUEST_LINE_BYTES)
}

/// [`serve_lines`] with an explicit line cap (tests use a small one).
fn serve_lines_bounded<R: BufRead, W: Write>(
    server: &ShardedServer,
    mut reader: R,
    mut writer: W,
    max_line_bytes: usize,
) -> std::io::Result<bool> {
    loop {
        let (response, stop) = match read_bounded_line(&mut reader, max_line_bytes)? {
            LineRead::Eof => return Ok(false),
            LineRead::Oversize => {
                let error = EngineError::Protocol(format!(
                    "request line exceeds the {max_line_bytes}-byte limit and was discarded"
                ));
                (error_value(error.kind(), &error.to_string()), false)
            }
            LineRead::Line(line) if line.trim().is_empty() => continue,
            LineRead::Line(line) => server.handle_line(&line),
        };
        let mut encoded =
            serde_json::to_string(&response).expect("response serialization is infallible");
        encoded.push('\n');
        let written = writer
            .write_all(encoded.as_bytes())
            .and_then(|()| writer.flush());
        if stop {
            // A requested shutdown stands even when its acknowledgement
            // cannot be delivered: a client may close its socket right
            // after sending `shutdown`, and the TCP listener must still
            // stop rather than serve on forever.
            return Ok(true);
        }
        written?;
    }
}

/// Serves newline-delimited JSON over stdin/stdout — the scripted-smoke
/// transport. Returns at end of input or after a `shutdown` request.
pub fn serve_stdio(server: &ShardedServer) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_lines(server, BufReader::new(stdin.lock()), stdout.lock()).map(|_| ())
}

fn serve_connection(server: &ShardedServer, stream: TcpStream, shutdown: &AtomicBool) {
    // Latency measurements at this request size are dominated by Nagle
    // delays unless disabled; correctness does not depend on it.
    let _ = stream.set_nodelay(true);
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            eprintln!("privcluster-server: dropping connection: {e}");
            return;
        }
    };
    match serve_lines(server, reader, &stream) {
        Ok(true) => shutdown.store(true, Ordering::Release),
        Ok(false) => {}
        Err(e) => eprintln!("privcluster-server: connection ended with error: {e}"),
    }
}

/// Binds `addr` and serves connections concurrently, one thread each. The
/// locally bound address is reported through `on_bound` (useful with port
/// 0). A `shutdown` request on any connection stops the accept loop; the
/// call returns once every open connection has finished.
pub fn serve_tcp(
    server: &Arc<ShardedServer>,
    addr: &str,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    on_bound(listener.local_addr()?);
    // Non-blocking accept so the loop can notice a shutdown requested on a
    // worker thread; 2 ms of poll latency is invisible next to connection
    // setup.
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let server = Arc::clone(server);
                let shutdown = Arc::clone(&shutdown);
                workers.push(std::thread::spawn(move || {
                    serve_connection(&server, stream, &shutdown)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                eprintln!("privcluster-server: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use privcluster_engine::{Engine, EngineConfig};

    fn server() -> ShardedServer {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            cache_capacity: 32,
            ..EngineConfig::default()
        });
        ShardedServer::new(vec![engine], 0)
    }

    const REGISTER: &str = r#"{"op":"register","dataset":"demo","domain":{"dim":2,"size":1024},"budget":{"epsilon":4.0,"delta":0.0001},"composition":"basic","synthetic":{"kind":"planted_ball","n":400,"cluster_size":200,"cluster_radius":0.02,"seed":7}}"#;

    #[test]
    fn serve_lines_speaks_the_protocol_end_to_end() {
        let script = format!(
            "{REGISTER}\n\n{}\n{}\n{}\n{}\n",
            r#"{"op":"query","dataset":"demo","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
            r#"{"op":"query","dataset":"missing","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":10,"beta":0.1}}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"list"}"#,
        );
        let mut out = Vec::new();
        let stopped = serve_lines(&server(), script.as_bytes(), &mut out).unwrap();
        assert!(stopped);
        // The empty line is skipped, and nothing after `shutdown` is read.
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""op":"register""#));
        assert!(lines[1].contains(r#""op":"query""#));
        assert!(lines[2].contains(r#""kind":"unknown_dataset""#));
        assert_eq!(lines[3], r#"{"ok":true,"op":"shutdown"}"#);
        // The same script replayed against a fresh server produces
        // bit-identical output (the golden-file property CI relies on).
        let mut out2 = Vec::new();
        serve_lines(&server(), script.as_bytes(), &mut out2).unwrap();
        assert_eq!(out, out2);
    }

    /// A peer that has closed its end: every write fails.
    struct ClosedPeer;

    impl Write for ClosedPeer {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn shutdown_stands_when_its_acknowledgement_cannot_be_written() {
        let stopped = serve_lines(&server(), &b"{\"op\":\"shutdown\"}\n"[..], ClosedPeer);
        assert!(stopped.unwrap(), "an undeliverable ack must still stop");
        // Any other undeliverable response ends the connection with the
        // write error.
        let listed = serve_lines(&server(), &b"{\"op\":\"list\"}\n"[..], ClosedPeer);
        assert_eq!(listed.unwrap_err().kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn oversize_request_lines_get_an_error_and_the_connection_survives() {
        let cap = 256usize;
        // Line 1: oversize (newline-terminated). Line 2: oversize with NO
        // trailing newline (the unbounded-buffer attack shape: a stream
        // that never sends '\n'). Between them, valid requests must still
        // be served.
        let oversize = "x".repeat(cap + 10);
        let script = format!("{oversize}\n{{\"op\":\"list\"}}\n{oversize}");
        let mut out = Vec::new();
        let stopped = serve_lines_bounded(&server(), script.as_bytes(), &mut out, cap).unwrap();
        assert!(!stopped);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""kind":"protocol""#), "{}", lines[0]);
        assert!(lines[0].contains("exceeds"), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"list""#), "{}", lines[1]);
        assert!(lines[2].contains(r#""kind":"protocol""#), "{}", lines[2]);
    }

    #[test]
    fn bounded_line_reader_handles_boundaries() {
        let read_all = |input: &str, cap: usize| {
            let mut reader = std::io::BufReader::with_capacity(7, input.as_bytes());
            let mut out = Vec::new();
            loop {
                match read_bounded_line(&mut reader, cap).unwrap() {
                    LineRead::Eof => break,
                    LineRead::Oversize => out.push(None),
                    LineRead::Line(l) => out.push(Some(l)),
                }
            }
            out
        };
        // Exactly at the cap is fine; one byte over is not.
        assert_eq!(read_all("abcd\n", 4), vec![Some("abcd".to_string())]);
        assert_eq!(read_all("abcde\n", 4), vec![None]);
        // CRLF is stripped like BufRead::lines does; the \r counts toward
        // the cap only as a buffered byte.
        assert_eq!(read_all("ab\r\n", 4), vec![Some("ab".to_string())]);
        // A final unterminated line is still delivered.
        assert_eq!(
            read_all("a\nb", 4),
            vec![Some("a".to_string()), Some("b".to_string())]
        );
        // Oversize draining stays line-synchronised across small fill_buf
        // chunks (reader capacity 7 forces many chunks).
        assert_eq!(
            read_all("0123456789012345678901234567890\nok\n", 8),
            vec![None, Some("ok".to_string())]
        );
        assert_eq!(read_all("", 4), Vec::<Option<String>>::new());
    }
}
