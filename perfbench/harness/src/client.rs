//! The closed-loop serve client: one request in flight per connection,
//! each timed at the client from the first byte sent to the last byte
//! received, and the error accounting behind `failed`.
//!
//! A request fails when its response is `ok:false`, answers another id,
//! does not parse, or never comes because the server hung up. A hang-up
//! ends the connection, so it costs exactly one failure.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use diversim_bench::hashing::fnv1a64;
use diversim_bench::serve::EvaluationResponse;

/// How long a request may wait for its response.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One request as sent: its id and its wire line (without newline).
#[derive(Debug)]
pub struct Outgoing {
    /// The id the response must echo.
    pub id: String,
    /// The request line.
    pub line: String,
}

/// What one request got back.
#[derive(Debug)]
pub struct Outcome {
    /// Client-side latency, in nanoseconds.
    pub ns: u64,
    /// Whether the response was an `ok` answer to this request's id.
    pub ok: bool,
    /// The response line, or `None` when the server hung up.
    pub response: Option<String>,
}

/// Whether `response` is a successful answer to request `id`.
pub fn answers(response: Option<&str>, id: &str) -> bool {
    matches!(
        response.map(EvaluationResponse::parse_status),
        Some(Ok((got, true))) if got == id
    )
}

/// Sends `requests` one at a time over `stream`, waiting for each
/// response. Stops after the first hang-up, so the result holds one
/// [`Outcome`] per request attempted.
pub fn converse(stream: TcpStream, requests: &[Outgoing]) -> Vec<Outcome> {
    let mut outcomes = Vec::with_capacity(requests.len());
    // The service answers one line per request: Nagle buffering would
    // only add delayed-ACK stalls to every round trip. A server that
    // stops answering counts as hung up instead of stalling the run.
    let ready = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
        .and_then(|()| stream.try_clone());
    let Ok(reader) = ready else {
        return outcomes;
    };
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    let mut line = String::new();
    for request in requests {
        line.clear();
        let started = Instant::now();
        let sent = writer
            .write_all(request.line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        let received = sent.and_then(|()| reader.read_line(&mut line));
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let response = match received {
            Ok(n) if n > 0 => Some(line.trim_end_matches(['\r', '\n']).to_string()),
            _ => None,
        };
        let ok = answers(response.as_deref(), &request.id);
        let hung_up = response.is_none();
        outcomes.push(Outcome { ns, ok, response });
        if hung_up {
            break;
        }
    }
    outcomes
}

/// Folds response lines, in order, into one FNV-1a digest (a missing
/// response folds as the empty line).
pub fn digest<'a>(responses: impl IntoIterator<Item = Option<&'a str>>) -> u64 {
    responses
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |acc, line| {
            let mut bytes = acc.to_le_bytes().to_vec();
            bytes.extend_from_slice(line.unwrap_or("").as_bytes());
            fnv1a64(&bytes)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn outgoing(id: &str) -> Outgoing {
        Outgoing {
            id: id.into(),
            line: format!(r#"{{"api":"diversim/v1","id":"{id}","kind":"ping"}}"#),
        }
    }

    fn ok_line(id: &str) -> String {
        format!(r#"{{"api":"diversim/v1","id":"{id}","ok":true,"result":{{"kind":"pong"}}}}"#)
    }

    /// A fake server that answers each request line with the next
    /// scripted reply, then hangs up.
    fn scripted(replies: Vec<String>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for reply in replies {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap() == 0 {
                    return;
                }
                writer.write_all(reply.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn each_kind_of_bad_answer_is_one_failure() {
        let replies = vec![
            ok_line("r0"),
            r#"{"api":"diversim/v1","id":"r1","ok":false,"error":"boom"}"#.to_string(),
            ok_line("someone-else"),
            "not json at all".to_string(),
            ok_line("r4"),
        ];
        let (addr, server) = scripted(replies);
        let requests: Vec<Outgoing> = (0..8).map(|i| outgoing(&format!("r{i}"))).collect();
        let outcomes = converse(TcpStream::connect(addr).unwrap(), &requests);
        server.join().unwrap();
        let oks: Vec<bool> = outcomes.iter().map(|o| o.ok).collect();
        // ok, ok:false, wrong id, unparseable, ok, then the hang-up:
        // the connection stops after the one request that got nothing.
        assert_eq!(oks, [true, false, false, false, true, false]);
        assert_eq!(outcomes.last().unwrap().response, None);
        assert_eq!(outcomes.iter().filter(|o| !o.ok).count(), 4);
    }

    #[test]
    fn answers_checks_status_and_id() {
        assert!(answers(Some(&ok_line("a")), "a"));
        assert!(!answers(Some(&ok_line("a")), "b"));
        assert!(!answers(Some("{"), "a"));
        assert!(!answers(None, "a"));
    }

    #[test]
    fn digest_depends_on_every_line_and_order() {
        let a = digest([Some("x"), Some("y")]);
        assert_eq!(a, digest([Some("x"), Some("y")]));
        assert_ne!(a, digest([Some("y"), Some("x")]));
        assert_ne!(a, digest([Some("x"), Some("z")]));
        assert_ne!(a, digest([Some("x"), None]));
    }
}
