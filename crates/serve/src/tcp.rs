//! TCP front end: one thread per connection, line-delimited JSON.
//!
//! The accept loop polls a nonblocking listener so a `shutdown` command
//! can stop it without a self-connect trick. Connection threads carry a
//! read timeout so idle peers notice the stop flag; the accept loop
//! reaps finished ones as it goes and joins the rest before draining
//! the [`Server`] itself. A request line longer than [`MAX_LINE_BYTES`]
//! gets one error line and the connection closes, so no peer can make
//! the server buffer without bound.

use crate::log::Level;
use crate::protocol::{self, Command};
use crate::server::Server;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest request line accepted, not counting its newline. Real
/// requests are well under 1 KiB.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Bind `addr` and serve until a `shutdown` command arrives. Returns
/// the locally bound address via `on_bound` before serving (so callers
/// can bind port 0 and learn the port).
pub fn serve(
    server: Arc<Server>,
    addr: &str,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    on_bound(listener.local_addr()?);
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        conns.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                conns.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, &server, &stop);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    // Drain open connections, then the server itself.
    for c in conns {
        let _ = c.join();
    }
    server.shutdown();
    Ok(())
}

fn handle_connection(stream: TcpStream, server: &Server, stop: &AtomicBool) -> std::io::Result<()> {
    // A read timeout lets idle connections notice `stop` and exit, so
    // the accept loop's join cannot hang on a silent peer. Nagle off:
    // the protocol is strict request/response, where delayed ACKs
    // otherwise add ~40ms per round trip.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        // read_until appends, so a line split across timeouts
        // accumulates in `buf` instead of being dropped; `take` stops
        // it one byte past the cap.
        let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {}
            Ok(_) if buf.len() > MAX_LINE_BYTES => {
                let e = format!("request line longer than {MAX_LINE_BYTES} bytes");
                writer.write_all(format!("{}\n", protocol::render_error(&e)).as_bytes())?;
                writer.shutdown(Shutdown::Write)?;
                drain(&mut reader, stop);
                break;
            }
            Ok(_) => continue,
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let Ok(line) = String::from_utf8(std::mem::take(&mut buf)) else {
            break; // not UTF-8: not a protocol line
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match protocol::parse_line(&line) {
            Err(e) => {
                server.log().event(Level::Warn, "parse_error", |f| {
                    f.str("error", &e);
                });
                protocol::render_error(&e)
            }
            Ok(Command::Ping) => "{\"status\":\"ok\",\"pong\":true}".to_string(),
            Ok(Command::Metrics) => format!(
                "{{\"status\":\"ok\",\"metrics\":{}}}",
                obs::json::escape(&server.metrics_text())
            ),
            Ok(Command::Events) => {
                format!("{{\"status\":\"ok\",\"events\":{}}}", server.events_json())
            }
            Ok(Command::Health) => {
                format!("{{\"status\":\"ok\",\"health\":{}}}", server.health_json())
            }
            Ok(Command::Dump) => match server.dump_json() {
                Ok(bundle) => format!("{{\"status\":\"ok\",\"dump\":{bundle}}}"),
                Err(e) => protocol::render_error(&e),
            },
            Ok(Command::Shutdown) => {
                server
                    .log()
                    .event(Level::Info, "shutdown_requested", |_| {});
                stop.store(true, Ordering::SeqCst);
                writer.write_all(b"{\"status\":\"ok\",\"stopping\":true}\n")?;
                writer.flush()?;
                break;
            }
            Ok(Command::Run(req)) => match server.run(&req) {
                Ok(resp) => protocol::render_ok(resp.cached, &resp.artifact),
                Err(e) => protocol::render_error(&e.to_string()),
            },
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Discard whatever the peer still sends until it closes (or the server
/// stops): closing a socket with unread input resets the connection,
/// which can destroy the error line before the peer reads it.
fn drain(reader: &mut impl Read, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match std::io::copy(reader, &mut std::io::sink()) {
            Err(e) if is_timeout(&e) => {}
            _ => return, // end of stream, or a real error
        }
    }
}
