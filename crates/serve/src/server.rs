//! The line protocol: a network-free request/response framing over any
//! `BufRead`/`Write` pair (`ep2 serve` wires it to stdin/stdout).
//!
//! Requests, one per line:
//!
//! ```text
//! predict <id> <v1,v2,...,vd>   ask for f(x) on one feature row
//! ping                          liveness probe
//! stats                         counters + latency percentiles so far
//! shutdown                      drain the queue and exit
//! ```
//!
//! Responses (interleaved; match them to requests by `<id>`):
//!
//! ```text
//! ok <id> <y1,...,yl>           prediction
//! busy <id> <est_wait_us> <budget_us>   shed by admission control
//! err <id> <message>            malformed request
//! pong / stats ... / bye
//! ```
//!
//! A request line may hold at most `4096 + 64·d` bytes for a model with `d`
//! features, room for any row of shortest round-trip floats. A longer line
//! is answered with `err - line too long` and skipped through its newline
//! without being buffered, so a client cannot grow the server's memory.
//!
//! Floats are rendered with Rust's shortest round-trippable formatting, so
//! `ok` payloads parse back to bit-identical values at the serving
//! precision — the protocol does not erode the engine's bit-for-bit parity
//! with offline prediction.

use std::io::{self, BufRead, Write};
use std::sync::{Mutex, PoisonError};

use ep2_linalg::Scalar;

use crate::engine::ServeEngine;

/// Formats one output row as `v1,v2,...` with round-trippable floats.
fn format_row<S: Scalar>(out: &mut String, row: &[S]) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `{}` on f64 prints the shortest digits that re-parse exactly;
        // S -> f64 widening is lossless at every serving precision.
        out.push_str(&format!("{}", v.to_f64()));
    }
}

/// Parses a `v1,v2,...` feature payload at the serving precision. A value
/// that is not finite once narrowed to `S` (NaN, ±inf, or past the
/// precision's range) is refused: it would poison every output of the row.
fn parse_features<S: Scalar>(payload: &str, dim: usize, buf: &mut Vec<S>) -> Result<(), String> {
    buf.clear();
    for tok in payload.split(',') {
        let v: f64 = tok
            .trim()
            .parse()
            .map_err(|_| format!("bad float {tok:?}"))?;
        let narrowed = S::from_f64(v);
        if !narrowed.to_f64().is_finite() {
            return Err(format!(
                "feature {tok:?} is not finite at the serving precision"
            ));
        }
        buf.push(narrowed);
    }
    if buf.len() != dim {
        return Err(format!("expected {dim} features, got {}", buf.len()));
    }
    Ok(())
}

/// Bytes a request line may spend per feature: a shortest round-trip `f64`
/// takes at most 24, so this leaves room for a comma and padding.
const FEATURE_BYTES: usize = 64;

/// Bytes a request line may spend on its verb, id and separators.
const LINE_OVERHEAD_BYTES: usize = 4096;

/// The longest request line, in bytes, accepted for a model with `dim`
/// features.
fn line_cap(dim: usize) -> usize {
    dim.saturating_mul(FEATURE_BYTES)
        .saturating_add(LINE_OVERHEAD_BYTES)
}

/// What [`read_capped_line`] found.
#[derive(Debug, PartialEq, Eq)]
enum Frame {
    /// A line of at most the cap, now in the buffer (newline excluded).
    Line,
    /// A line over the cap, consumed through its newline; the buffer is
    /// empty.
    TooLong,
    /// End of input.
    Eof,
}

/// Reads one `\n`-terminated line into `buf`, which never holds more than
/// `cap` bytes: the rest of a longer line is consumed and dropped.
fn read_capped_line(reader: &mut impl BufRead, cap: usize, buf: &mut Vec<u8>) -> io::Result<Frame> {
    buf.clear();
    let mut too_long = false;
    let mut read_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(match (read_any, too_long) {
                (false, _) => Frame::Eof,
                (true, false) => Frame::Line,
                (true, true) => Frame::TooLong,
            });
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        if !too_long && buf.len() + part.len() <= cap {
            buf.extend_from_slice(part);
        } else {
            too_long = true;
            buf.clear();
        }
        let used = newline.map_or(chunk.len(), |p| p + 1);
        reader.consume(used);
        if newline.is_some() {
            return Ok(if too_long {
                Frame::TooLong
            } else {
                Frame::Line
            });
        }
    }
}

/// Serves the line protocol until `shutdown` or end-of-input, then drains
/// the queue and joins the workers. Returns the number of protocol lines
/// handled.
///
/// Worker replies and driver-side responses (`busy`, `err`, `pong`, ...)
/// share one locked writer; every response is a single line, so
/// interleaving is per-response and clients demultiplex by id.
pub fn serve_lines<S: Scalar>(
    engine: &ServeEngine<S>,
    mut reader: impl BufRead,
    writer: impl Write + Send,
) -> std::io::Result<u64> {
    let out = Mutex::new(writer);
    // A worker that panics mid-write poisons the writer; later responses
    // still go out.
    let lock = || out.lock().unwrap_or_else(PoisonError::into_inner);
    let sink = |id: &str, row: &[S]| {
        let mut line = String::with_capacity(32);
        format_row(&mut line, row);
        let mut w = lock();
        // A broken client pipe must not kill the worker; drop the reply.
        let _ = writeln!(w, "ok {id} {line}");
        let _ = w.flush();
    };
    let dim = engine.model().dim();
    let mut handled = 0_u64;
    let result = engine.run(&sink, || -> std::io::Result<u64> {
        let mut features: Vec<S> = Vec::with_capacity(dim);
        let cap = line_cap(dim);
        let mut bytes = Vec::new();
        loop {
            let frame = read_capped_line(&mut reader, cap, &mut bytes)?;
            if frame == Frame::Eof {
                break;
            }
            if frame == Frame::TooLong {
                handled += 1;
                let mut w = lock();
                writeln!(w, "err - line too long (limit {cap} bytes)")?;
                w.flush()?;
                continue;
            }
            let line = std::str::from_utf8(&bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                .trim();
            if line.is_empty() {
                continue;
            }
            handled += 1;
            let mut parts = line.splitn(3, ' ');
            let verb = parts.next().unwrap_or("");
            match verb {
                "predict" => {
                    let id = parts.next().unwrap_or("");
                    let payload = parts.next().unwrap_or("");
                    if id.is_empty() || payload.is_empty() {
                        let mut w = lock();
                        writeln!(w, "err - usage: predict <id> <v1,v2,...>")?;
                        w.flush()?;
                        continue;
                    }
                    match parse_features::<S>(payload, dim, &mut features) {
                        Ok(()) => {
                            if let Err(shed) = engine.submit(id, &features) {
                                let mut w = lock();
                                writeln!(w, "busy {id} {} {}", shed.est_wait_us, shed.budget_us)?;
                                w.flush()?;
                            }
                        }
                        Err(msg) => {
                            let mut w = lock();
                            writeln!(w, "err {id} {msg}")?;
                            w.flush()?;
                        }
                    }
                }
                "ping" => {
                    let mut w = lock();
                    writeln!(w, "pong")?;
                    w.flush()?;
                }
                "stats" => {
                    let st = engine.stats();
                    let mut w = lock();
                    writeln!(
                        w,
                        "stats served={} shed={} batches={} recoveries={} p50_us={} p99_us={}",
                        st.served,
                        st.shed,
                        st.batches,
                        st.recoveries,
                        st.percentile_us(50.0),
                        st.percentile_us(99.0),
                    )?;
                    w.flush()?;
                }
                "shutdown" => break,
                other => {
                    let mut w = lock();
                    writeln!(w, "err - unknown command {other:?}")?;
                    w.flush()?;
                }
            }
        }
        Ok(handled)
    })?;
    let mut w = lock();
    let _ = writeln!(w, "bye");
    let _ = w.flush();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_parsing_rejects_bad_payloads() {
        let mut buf: Vec<f64> = Vec::new();
        assert!(parse_features::<f64>("1.0,2.0", 2, &mut buf).is_ok());
        assert_eq!(buf, vec![1.0, 2.0]);
        assert!(parse_features::<f64>("1.0", 2, &mut buf).is_err());
        assert!(parse_features::<f64>("1.0,abc", 2, &mut buf).is_err());
    }

    #[test]
    fn capped_reader_drops_long_lines_without_buffering_them() {
        let long = "x".repeat(10_000);
        let input = format!("short\n{long}\nsix666\nexact\ntail\n\nat-eof");
        // A tiny read buffer makes the long line arrive in many chunks.
        let mut reader = io::BufReader::with_capacity(7, input.as_bytes());
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        loop {
            let frame = read_capped_line(&mut reader, 5, &mut buf).unwrap();
            assert!(buf.capacity() <= 16, "buffered {} bytes", buf.capacity());
            if frame == Frame::Eof {
                break;
            }
            frames.push((frame, String::from_utf8(buf.clone()).unwrap()));
        }
        let expected = [
            (Frame::Line, "short"),
            (Frame::TooLong, ""),
            (Frame::TooLong, ""),
            (Frame::Line, "exact"),
            (Frame::Line, "tail"),
            (Frame::Line, ""),
            (Frame::TooLong, ""),
        ];
        let expected: Vec<(Frame, String)> = expected
            .into_iter()
            .map(|(f, l)| (f, l.to_string()))
            .collect();
        assert_eq!(frames, expected);
    }

    #[test]
    fn formatting_round_trips_exactly() {
        let vals = [0.1_f64, 1.0 / 3.0, -2.5e-9, f64::MIN_POSITIVE];
        let mut line = String::new();
        format_row(&mut line, &vals);
        let parsed: Vec<f64> = line.split(',').map(|t| t.parse().unwrap()).collect();
        assert_eq!(parsed, vals);
    }
}
