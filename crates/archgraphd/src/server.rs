//! The daemon's accept loop and per-connection protocol handler.
//!
//! The listener is either a Unix-domain socket (the default — local,
//! permission-scoped, removable on shutdown) or a TCP socket, which is
//! *loopback-only* unless the operator passes both `--allow-remote`
//! and `--token`: binding a non-loopback address without a bearer
//! token is refused at startup, and with a token every connection must
//! send the token as its literal first line before any request is
//! processed.
//!
//! The accept loop is event-driven. The listener is non-blocking; when
//! nothing is pending the loop blocks in `poll(2)` on the listener and
//! on the read end of a wake pipe, so a new connection is accepted the
//! moment it arrives. A `shutdown` op from any client writes one byte to
//! the pipe and ends the loop at once. A SIGTERM/SIGINT flagged by the
//! shared [`archgraph_bench::signals`] handler (a lone atomic store) or
//! an externally set `stop` flag is seen within one 50 ms tick, the
//! `poll` timeout. Off Unix the loop sleeps a tick instead of polling.
//!
//! After the loop, the scheduler drains gracefully: in-flight cells
//! finish and are cached, and queued cells flush to their submitters as
//! cancelled. The drain then waits until every handler thread streaming
//! a job has written its terminal `done` line, bounded by
//! `DRAIN_DEADLINE` (1 s) so a client that stopped reading cannot hold
//! shutdown, and removes the socket file.
//!
//! Each accepted connection gets its own handler thread reading request
//! lines; a malformed line answers with a structured error and keeps the
//! connection. Handler threads are detached — they die with the process
//! after the drain, and a client mid-`submit` whose stream ends simply
//! resubmits after restart, where the result cache makes the replay
//! nearly free.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::fs::MetadataExt;
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use crate::protocol::{self, Request};
use crate::queue::{Event, Scheduler};

/// The accept loop's tick: the longest it waits before re-checking the
/// `stop` flag and pending signals, which nothing can wake it for.
const TICK: Duration = Duration::from_millis(50);

/// How long the drain waits for handler threads to write their terminal
/// `done` lines. Writing one takes microseconds; only a client that has
/// stopped reading (and filled its socket buffer) can use this up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// Where the daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7411`.
    Tcp(String),
}

impl Endpoint {
    /// Human-readable form for log lines.
    pub fn describe(&self) -> String {
        match self {
            Endpoint::Unix(p) => format!("unix:{}", p.display()),
            Endpoint::Tcp(a) => format!("tcp:{a}"),
        }
    }
}

/// Remote-access policy for TCP endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Security {
    /// Permit binding a non-loopback TCP address (requires `token`).
    pub allow_remote: bool,
    /// Bearer token every connection must send as its first line.
    pub token: Option<String>,
}

/// The identity of a bound socket file: `(st_dev, st_ino)`. Recorded at
/// bind time so shutdown only unlinks the path if it still names *our*
/// socket — a daemon that lost a reclaim race must not delete a newer
/// daemon's live socket.
#[cfg(unix)]
type FileId = (u64, u64);

#[cfg(unix)]
fn file_id(path: &std::path::Path) -> Option<FileId> {
    std::fs::symlink_metadata(path)
        .ok()
        .map(|m| (m.dev(), m.ino()))
}

/// A bound listening socket.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener, the path to unlink on shutdown, and the
    /// socket file's identity as bound (to detect losing the path to a
    /// newer daemon).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf, Option<FileId>),
    /// TCP listener (loopback-only unless remote access is enabled).
    Tcp(TcpListener),
}

/// One accepted (or dialed) connection.
pub enum Conn {
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// A second handle on the same stream (read half / write half).
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Arm a read deadline: any read blocking longer than `dur` fails
    /// with `WouldBlock`/`TimedOut` instead of parking forever.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(dur),
            Conn::Tcp(s) => s.set_read_timeout(dur),
        }
    }
}

/// Does this I/O error mean a read deadline expired (rather than the
/// peer hanging up)? Unix sockets report `WouldBlock`, TCP on some
/// platforms `TimedOut`.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Bind the endpoint with the default (local-only) security policy.
pub fn bind(ep: &Endpoint) -> io::Result<Listener> {
    bind_secured(ep, &Security::default())
}

/// Bind the endpoint. A Unix socket path left behind by a killed daemon
/// (the file exists but nothing answers) is reclaimed automatically;
/// a *live* daemon on the same path is an error — two daemons must not
/// fight over one socket. A non-loopback TCP address is refused unless
/// the policy allows remote access *and* carries a bearer token.
pub fn bind_secured(ep: &Endpoint, security: &Security) -> io::Result<Listener> {
    match ep {
        Endpoint::Unix(path) => {
            #[cfg(unix)]
            {
                if path.exists() {
                    match UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!("another archgraphd is already serving {}", path.display()),
                            ))
                        }
                        // Dead socket file (daemon was killed): reclaim it.
                        Err(_) => {
                            let _ = std::fs::remove_file(path);
                        }
                    }
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                let id = file_id(path);
                Ok(Listener::Unix(l, path.clone(), id))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are unavailable on this platform; use --tcp",
                ))
            }
        }
        Endpoint::Tcp(addr) => {
            let loopback_only = !(security.allow_remote && security.token.is_some());
            if loopback_only {
                let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
                if let Some(bad) = addrs.iter().find(|a| !a.ip().is_loopback()) {
                    return Err(io::Error::new(
                        io::ErrorKind::PermissionDenied,
                        format!(
                            "refusing non-loopback TCP bind {bad}: archgraphd serves \
                             localhost only unless --allow-remote and --token are both given"
                        ),
                    ));
                }
            }
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Ok(Listener::Tcp(l))
        }
    }
}

/// Dial the endpoint (client side).
pub fn connect(ep: &Endpoint) -> io::Result<Conn> {
    connect_with(ep, None)
}

/// Dial the endpoint with an optional connect deadline. Unix-domain
/// connects are local and effectively instant (the kernel either has a
/// listener or it does not), so the deadline only governs TCP, where it
/// bounds each candidate address resolved from the spec.
pub fn connect_with(ep: &Endpoint, timeout: Option<Duration>) -> io::Result<Conn> {
    match ep {
        Endpoint::Unix(path) => {
            #[cfg(unix)]
            {
                UnixStream::connect(path).map(Conn::Unix)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are unavailable on this platform; use --tcp",
                ))
            }
        }
        Endpoint::Tcp(addr) => match timeout {
            None => TcpStream::connect(addr).map(Conn::Tcp),
            Some(dur) => {
                let mut last = io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{addr}: no addresses resolved"),
                );
                for candidate in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&candidate, dur) {
                        Ok(s) => return Ok(Conn::Tcp(s)),
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
        },
    }
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l, _, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        match self {
            Listener::Unix(l, _, _) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// Unlink the socket path — but only while it still names the
    /// socket *we* bound. If a newer daemon reclaimed the path (after
    /// this one's file was removed out from under it), the inode no
    /// longer matches and the path is left alone.
    fn cleanup(&self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path, bound_id) = self {
            if bound_id.is_some() && file_id(path) == *bound_id {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Handler threads currently streaming a job, counted so the drain can
/// wait for their terminal `done` lines instead of sleeping.
#[derive(Default)]
struct Streams {
    live: Mutex<usize>,
    idle: Condvar,
}

impl Streams {
    /// Register a streaming handler until the returned guard drops.
    fn enter(&self) -> StreamGuard<'_> {
        *self.live.lock().expect("streams lock") += 1;
        StreamGuard(self)
    }

    /// Wait until no handler is streaming, or `deadline` has passed.
    fn wait_idle(&self, deadline: Duration) {
        let live = self.live.lock().expect("streams lock");
        let _ = self.idle.wait_timeout_while(live, deadline, |n| *n > 0);
    }
}

/// One registered streaming handler; dropping it deregisters.
struct StreamGuard<'a>(&'a Streams);

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        // Never panic in drop: the count stays valid under a poisoned lock.
        let mut live = self.0.live.lock().unwrap_or_else(PoisonError::into_inner);
        *live -= 1;
        if *live == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// What every handler thread shares with the accept loop.
struct Shared {
    sched: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    wake: wake::Wake,
    streams: Streams,
    token: Option<String>,
    idle_timeout: Option<Duration>,
}

impl Shared {
    /// Ask the accept loop to stop, waking it if this is the first ask.
    fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            self.wake.ring();
        }
    }
}

/// Run the daemon until a `shutdown` op or a pending SIGTERM/SIGINT,
/// then drain the scheduler and remove the socket. Returns the reason
/// ("shutdown op" or the signal name) for the final log line.
pub fn serve(
    listener: Listener,
    sched: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    token: Option<String>,
    idle_timeout: Option<Duration>,
) -> &'static str {
    let shared = Arc::new(Shared {
        sched,
        stop,
        wake: wake::Wake::new(),
        streams: Streams::default(),
        token,
        idle_timeout,
    });
    let reason = loop {
        if shared.stop.load(Ordering::SeqCst) {
            break "shutdown op";
        }
        if let Some(signo) = archgraph_bench::signals::pending() {
            break if signo == archgraph_bench::signals::SIGTERM {
                "SIGTERM"
            } else {
                "SIGINT"
            };
        }
        match listener.accept() {
            Ok(conn) => {
                let shared = Arc::clone(&shared);
                // Detached: dies with the process after the drain.
                let _ = thread::Builder::new()
                    .name("archgraphd-client".to_string())
                    .spawn(move || handle_client(conn, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => shared.wake.wait(&listener, TICK),
            Err(e) => {
                eprintln!("archgraphd: accept error: {e}");
                thread::sleep(TICK);
            }
        }
    };
    // Graceful drain: finish in-flight cells (caching them), flush the
    // queued remainder as cancelled, wait for the handler threads to
    // write their terminal lines, then release the socket.
    shared.sched.shutdown_and_join();
    shared.streams.wait_idle(DRAIN_DEADLINE);
    listener.cleanup();
    reason
}

/// The accept loop's wake-up: on Unix, `poll(2)` on the listener and a
/// self-pipe that the `shutdown` op writes to. Raw FFI, the way
/// `bench::signals` declares `signal(2)` — no libc crate.
#[cfg(unix)]
mod wake {
    use std::io::{self, PipeReader, PipeWriter, Write};
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    use super::Listener;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `POLLIN` on every Unix the workspace targets.
    const POLLIN: c_short = 0x1;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        // `poll(2)` from the platform libc.
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    /// The wake pipe. `None` only if `pipe(2)` failed at startup; the
    /// loop then waits on the listener alone and sees a shutdown within
    /// one tick, as it does a signal.
    pub struct Wake(Option<(PipeReader, PipeWriter)>);

    impl Wake {
        pub fn new() -> Wake {
            Wake(io::pipe().ok())
        }

        /// Wake the accept loop. Called at most once per daemon.
        pub fn ring(&self) {
            if let Some((_, tx)) = &self.0 {
                let _ = (&*tx).write_all(&[1]);
            }
        }

        /// Block until the listener is readable, the pipe is rung, a
        /// signal interrupts the call, or `tick` passes.
        pub fn wait(&self, listener: &Listener, tick: Duration) {
            // A negative fd is ignored by poll(2).
            let pipe_fd = self.0.as_ref().map_or(-1, |(rx, _)| rx.as_raw_fd());
            let mut fds = [listener.raw_fd(), pipe_fd].map(|fd| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            });
            let timeout = tick.as_millis().min(c_int::MAX as u128) as c_int;
            // SAFETY: `fds` is a live, correctly laid out array of
            // `fds.len()` pollfd structs for the duration of the call.
            let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout) };
            if ready < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                // Never spin on a persistent poll failure.
                std::thread::sleep(tick);
            }
        }
    }
}

/// Off Unix there is no `poll(2)`: the accept loop sleeps a tick.
#[cfg(not(unix))]
mod wake {
    use std::time::Duration;

    use super::Listener;

    pub struct Wake;

    impl Wake {
        pub fn new() -> Wake {
            Wake
        }

        pub fn ring(&self) {}

        pub fn wait(&self, _listener: &Listener, tick: Duration) {
            std::thread::sleep(tick);
        }
    }
}

/// One connection's request loop. Returns when the client disconnects,
/// a write fails, or the client asked for shutdown. With a token set,
/// the connection's first line must be the bare token: a match is
/// silent (the client just proceeds), anything else answers a
/// structured error and closes the connection. With an idle timeout
/// set, a connection whose next request (or auth line) does not arrive
/// within the deadline gets one structured error line and is closed —
/// idle clients cannot pin handler threads forever.
fn handle_client(conn: Conn, shared: &Shared) {
    let Shared {
        sched,
        token,
        idle_timeout,
        ..
    } = shared;
    let idle_timeout = *idle_timeout;
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    if idle_timeout.is_some() && read_half.set_read_timeout(idle_timeout).is_err() {
        return;
    }
    let reader = BufReader::new(read_half);
    let mut w = conn;
    let mut lines = reader.lines();
    let idle_close = |w: &mut Conn| {
        let ms = idle_timeout.map_or(0, |d| d.as_millis());
        let _ = writeln!(
            w,
            "{}",
            protocol::error(&format!("idle timeout: no request within {ms} ms"))
        );
        let _ = w.flush();
    };
    if let Some(expect) = token.as_deref() {
        let presented = lines.next();
        if let Some(Err(e)) = &presented {
            if is_timeout(e) {
                idle_close(&mut w);
                return;
            }
        }
        let authed = matches!(&presented, Some(Ok(first)) if first.trim() == expect);
        if !authed {
            let _ = writeln!(
                w,
                "{}",
                protocol::error("authentication failed: send the bearer token as the first line")
            );
            let _ = w.flush();
            return;
        }
    }
    for line in lines {
        let line = match line {
            Ok(line) => line,
            Err(e) if is_timeout(&e) => {
                idle_close(&mut w);
                return;
            }
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let ok = match protocol::parse_request(&line) {
            Err(msg) => writeln!(w, "{}", protocol::error(&msg)),
            Ok(Request::Ping) => writeln!(w, "{}", protocol::pong()),
            Ok(Request::Status) => writeln!(w, "{}", protocol::status(&sched.snapshot())),
            Ok(Request::Cancel { job }) => {
                if sched.cancel(&job) {
                    writeln!(w, "{}", protocol::cancelled(&job))
                } else {
                    writeln!(w, "{}", protocol::error(&format!("unknown job {job:?}")))
                }
            }
            Ok(Request::Shutdown) => {
                let _ = writeln!(w, "{}", protocol::bye());
                let _ = w.flush();
                shared.request_stop();
                return;
            }
            Ok(Request::List) => writeln!(w, "{}", protocol::list_line(&sched.list())),
            Ok(Request::Submit {
                cells,
                budget_cycles,
                budget_host_ms,
            }) => {
                // Registered until the `done` line is written: the drain
                // waits for it.
                let _streaming = shared.streams.enter();
                stream_job(&mut w, sched, cells, budget_cycles, budget_host_ms)
            }
        };
        if ok.and_then(|()| w.flush()).is_err() {
            return;
        }
    }
}

/// Submit a job and stream its events until the terminal `done` line.
fn stream_job(
    w: &mut Conn,
    sched: &Scheduler,
    cells: Vec<archgraph_bench::CellSpec>,
    budget_cycles: Option<u64>,
    budget_host_ms: Option<u64>,
) -> io::Result<()> {
    let (tx, rx) = mpsc::channel();
    let (job, n) = match sched.submit(cells, budget_cycles, budget_host_ms, tx) {
        Ok(accepted) => accepted,
        Err(msg) => return writeln!(w, "{}", protocol::error(&msg)),
    };
    writeln!(w, "{}", protocol::accepted(&job, n))?;
    w.flush()?;
    for event in rx {
        match event {
            Event::Cell(ev) => {
                writeln!(w, "{}", protocol::cell_line(&job, &ev))?;
                w.flush()?;
            }
            Event::Done(sum) => return writeln!(w, "{}", protocol::done_line(&job, &sum)),
        }
    }
    // The channel closed without a Done event — only possible if the
    // scheduler dropped the job, which it never does; report it rather
    // than hanging the client.
    writeln!(w, "{}", protocol::error("job stream ended unexpectedly"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_describe_themselves() {
        assert_eq!(
            Endpoint::Unix(PathBuf::from("/tmp/d.sock")).describe(),
            "unix:/tmp/d.sock"
        );
        assert_eq!(
            Endpoint::Tcp("127.0.0.1:7411".into()).describe(),
            "tcp:127.0.0.1:7411"
        );
    }

    #[cfg(unix)]
    #[test]
    fn stale_socket_files_are_reclaimed_and_live_ones_refused() {
        let path = std::env::temp_dir().join(format!(
            "archgraphd-server-test-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // Simulate a daemon killed without cleanup: a dead socket file.
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "the socket file outlives the listener");
        let ep = Endpoint::Unix(path.clone());
        let second = bind(&ep).expect("stale socket reclaimed");
        // While it is live, a second daemon must be refused.
        let err = bind(&ep).expect_err("live socket refused");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        second.cleanup();
        assert!(!path.exists(), "cleanup removes the socket file");
    }

    #[cfg(unix)]
    #[test]
    fn a_superseded_daemon_does_not_unlink_its_successors_socket() {
        let path = std::env::temp_dir().join(format!(
            "archgraphd-server-test-{}-race.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let ep = Endpoint::Unix(path.clone());

        // Daemon A binds, then loses its socket file out from under it
        // (the reclaim race: someone judged it stale and removed it).
        let a = bind(&ep).expect("daemon A binds");
        std::fs::remove_file(&path).expect("A's socket file is removed");
        // Daemon B takes over the path with a fresh socket file.
        let b = bind(&ep).expect("daemon B binds the freed path");
        let b_id = file_id(&path).expect("B's socket file exists");

        // A shutting down must not delete B's live socket.
        a.cleanup();
        assert_eq!(
            file_id(&path),
            Some(b_id),
            "A's cleanup left B's socket in place"
        );
        // B still owns the path, so *its* cleanup removes it.
        b.cleanup();
        assert!(!path.exists(), "B's cleanup removes its own socket");
    }

    #[test]
    fn non_loopback_tcp_binds_are_refused_without_remote_credentials() {
        let ep = Endpoint::Tcp("0.0.0.0:0".into());
        let err = bind(&ep).expect_err("wildcard bind refused by default");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert!(err.to_string().contains("--allow-remote"), "{err}");

        // --allow-remote alone is not enough: a token is required too.
        let half = Security {
            allow_remote: true,
            token: None,
        };
        let err = bind_secured(&ep, &half).expect_err("no token, no remote");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);

        let full = Security {
            allow_remote: true,
            token: Some("s3cret".into()),
        };
        let l = bind_secured(&ep, &full).expect("token-backed remote bind");
        drop(l);

        // Loopback needs no credentials at all.
        let l = bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("loopback bind");
        drop(l);
    }
}
