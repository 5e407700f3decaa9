//! Transports of the evaluation service: stdin/stdout line mode and a
//! thread-per-connection TCP listener.
//!
//! Both transports speak the same newline-delimited protocol: one
//! request line in, one response line out, in request order per
//! connection. Responses are pure functions of their requests (see
//! [`super::service`]), so any interleaving of connections yields the
//! same bytes per request — the property the determinism suite pins.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;

use super::error::ServeError;
use super::request::EvaluationResponse;
use super::service::EvaluationService;

/// Answers requests from `input` onto `output` until end-of-input
/// (the `diversim serve --stdio` main loop, factored over generic
/// streams for testability). Empty lines are ignored; every non-empty
/// line gets exactly one response line, flushed immediately. A line
/// that is not valid UTF-8 is answered with a protocol error, never
/// decoded into a request, and the loop reads on.
///
/// # Errors
///
/// Propagates I/O errors from either stream.
pub fn serve_lines<R: BufRead, W: Write>(
    service: &EvaluationService,
    mut input: R,
    mut output: W,
) -> io::Result<()> {
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        if input.read_until(b'\n', &mut bytes)? == 0 {
            return Ok(());
        }
        // Strip the terminator, `\n` or `\r\n`, so CRLF clients are served too.
        let line = match bytes.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => &bytes,
        };
        let response = match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => service.handle_line(text),
            Err(e) => {
                let error = ServeError::Protocol {
                    message: format!("request line is not valid UTF-8 ({e})"),
                };
                EvaluationResponse::error(String::new(), &error).to_json()
            }
        };
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
    }
}

/// Runs the service over stdin/stdout until stdin closes.
///
/// # Errors
///
/// Propagates I/O errors from either stream.
pub fn serve_stdio(service: &EvaluationService) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_lines(service, stdin.lock(), stdout.lock())
}

fn serve_connection(service: &EvaluationService, stream: TcpStream) -> io::Result<()> {
    // One-line request/response RPC: Nagle buffering only adds
    // delayed-ACK stalls (tens of ms per round trip on loopback).
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_lines(service, reader, stream)
}

/// Binds `addr` and serves connections on a detached accept loop,
/// one thread per connection. Returns the bound address (useful with
/// port 0) and the accept-loop handle; the loop runs until the
/// process exits. Per-connection I/O errors (e.g. a client hanging
/// up mid-line) end that connection only.
///
/// # Errors
///
/// Propagates the bind error.
pub fn spawn_tcp<A: ToSocketAddrs>(
    service: Arc<EvaluationService>,
    addr: A,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let _ = serve_connection(&service, stream);
            });
        }
    });
    Ok((bound, handle))
}

/// Binds `addr`, prints the bound address, and serves forever (the
/// `diversim serve --tcp` main loop).
///
/// # Errors
///
/// Propagates the bind error.
pub fn serve_tcp<A: ToSocketAddrs>(
    service: Arc<EvaluationService>,
    addr: A,
    quiet: bool,
) -> io::Result<()> {
    let (bound, handle) = spawn_tcp(service, addr)?;
    if !quiet {
        println!("diversim serve listening on {bound}");
    }
    handle.join().expect("accept loop must not panic");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_loop_answers_and_skips_blanks() {
        let service = EvaluationService::new(1, 2);
        // A nesting bomb and a line that is not UTF-8 each get an error
        // line, and the loop keeps answering.
        let bomb = "[".repeat(400_000);
        let input = [
            br#"{"api":"diversim/v1","id":"a","kind":"ping"}"#.as_slice(),
            b"\n\n   \n",
            b"garbage\n",
            bomb.as_bytes(),
            b"\n",
            b"\xff\xfe\n",
            br#"{"api":"diversim/v1","id":"b","kind":"ping"}"#,
        ]
        .concat();
        let mut output = Vec::new();
        serve_lines(&service, input.as_slice(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        assert!(lines[0].contains(r#""id":"a","ok":true"#));
        assert!(lines[1].contains(r#""ok":false"#));
        assert!(lines[2].contains(r#""ok":false"#) && lines[2].contains("nesting"));
        assert!(lines[3].contains(r#""ok":false"#) && lines[3].contains("UTF-8"));
        assert!(lines[4].contains(r#""id":"b","ok":true"#));
    }

    #[test]
    fn tcp_round_trips_a_ping() {
        let service = Arc::new(EvaluationService::new(1, 2));
        let (addr, _handle) = spawn_tcp(service, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        // A nesting bomb and a line that is not UTF-8 first: their error
        // lines must not cost the connection its next answer.
        stream.write_all("[".repeat(8_000).as_bytes()).unwrap();
        stream
            .write_all(b"\n\xff\xfe\n{\"api\":\"diversim/v1\",\"id\":\"t\",\"kind\":\"ping\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains(r#""ok":false"#) && line.contains("nesting"),
            "{line}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains(r#""ok":false"#) && line.contains("UTF-8"),
            "{line}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            line.trim_end(),
            r#"{"api":"diversim/v1","id":"t","ok":true,"result":{"kind":"pong"}}"#
        );
    }
}
