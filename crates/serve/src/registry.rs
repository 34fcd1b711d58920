//! The live connections of one server, kept so a shutdown can reach
//! sockets whose threads are blocked in a read.
//!
//! Both servers run a thread per connection, at most [`MAX_CONNECTIONS`]
//! at once: the HTTP front end ([`crate::http`]) and the shard server
//! ([`crate::shard`]). Each registers a connection on accept and holds the
//! returned [`Registration`] for as long as the connection's thread runs;
//! dropping it deregisters the connection. A shutdown shuts every live
//! socket down with the [`Shutdown`] it needs: the read half for the HTTP
//! drain, both halves to sever a shard's in-flight RPCs.
//!
//! An HTTP connection is marked idle while its thread waits for the first
//! byte of a request. Out of descriptors, the HTTP accept loop sheds the
//! connection idle the longest ([`Connections::shed_idlest`]), as nginx
//! drains idle keep-alive connections; a request in flight is never shed.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Connections one server holds at once, each with its thread. Both
/// accept loops turn one more away without reading it: the HTTP front end
/// answers `503`, the shard server closes it.
pub const MAX_CONNECTIONS: usize = 256;

/// How long both accept loops pause after a failed `accept`. When the
/// process is out of file descriptors the pending connection stays
/// queued, so an immediate retry fails again at once and spins the accept
/// thread; the pause leaves the CPU to the connections that can close.
pub(crate) const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(5);

#[derive(Default)]
pub(crate) struct Connections {
    live: Mutex<Live>,
    /// Signalled when the last live connection deregisters.
    emptied: Condvar,
}

#[derive(Default)]
struct Live {
    next_id: u64,
    sockets: HashMap<u64, Conn>,
}

struct Conn {
    socket: Arc<TcpStream>,
    /// When the connection's thread began waiting for a request's first
    /// byte; `None` while a request is in flight.
    idle_since: Option<Instant>,
}

/// One registered connection; dropping it deregisters the connection.
pub(crate) struct Registration {
    conns: Arc<Connections>,
    id: u64,
}

impl Connections {
    /// Register `stream` as live until the returned registration drops.
    pub fn register(self: &Arc<Self>, stream: &Arc<TcpStream>) -> Registration {
        let mut live = self.lock();
        let id = live.next_id;
        live.next_id += 1;
        let conn = Conn {
            socket: Arc::clone(stream),
            idle_since: None,
        };
        live.sockets.insert(id, conn);
        Registration {
            conns: Arc::clone(self),
            id,
        }
    }

    pub fn len(&self) -> usize {
        self.lock().sockets.len()
    }

    /// Shut every live socket down with `how`. A read blocked on a socket
    /// whose read half is shut returns end-of-file.
    pub fn shutdown_all(&self, how: Shutdown) {
        for conn in self.lock().sockets.values() {
            let _ = conn.socket.shutdown(how);
        }
    }

    /// Shut the read half of the connection idle the longest, if one is,
    /// so its thread sees end-of-file and exits, freeing its descriptor.
    pub fn shed_idlest(&self) {
        let mut live = self.lock();
        let idlest = live
            .sockets
            .values_mut()
            .filter(|conn| conn.idle_since.is_some())
            .min_by_key(|conn| conn.idle_since);
        if let Some(conn) = idlest {
            conn.idle_since = None;
            let _ = conn.socket.shutdown(Shutdown::Read);
        }
    }

    /// Wait at most `timeout` for every connection to deregister; returns
    /// whether they all did.
    pub fn wait_empty(&self, timeout: Duration) -> bool {
        let (live, _) = self
            .emptied
            .wait_timeout_while(self.lock(), timeout, |live| !live.sockets.is_empty())
            .expect("connection registry poisoned");
        live.sockets.is_empty()
    }

    fn lock(&self) -> MutexGuard<'_, Live> {
        self.live.lock().expect("connection registry poisoned")
    }
}

impl Registration {
    /// Mark the connection idle (`true`: waiting for a request's first
    /// byte, so it may be shed) or busy.
    pub fn set_idle(&self, idle: bool) {
        if let Some(conn) = self.conns.lock().sockets.get_mut(&self.id) {
            conn.idle_since = idle.then(Instant::now);
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let mut live = self.conns.lock();
        live.sockets.remove(&self.id);
        if live.sockets.is_empty() {
            self.conns.emptied.notify_all();
        }
    }
}
