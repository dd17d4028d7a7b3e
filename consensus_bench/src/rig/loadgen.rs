//! The socket load generator of the `lan-*` workloads.
//!
//! One thread drives a few nonblocking client connections, built from the
//! public `net::wire` surface only: requests are
//! `WireMessage::<()>::ClientRequest` frames, replies are decoded with
//! `FrameBuffer::next_msg::<Event>`. "Clients" are in-flight slots
//! multiplexed over the connections, so the generator never runs more
//! threads than the sandbox has cores to spare. A request's latency is
//! stamped the moment its `ClientReply` frame is decoded.
//!
//! Two pacing modes share the loop. A *closed* loop keeps a fixed number of
//! requests in flight and sends the next one when a reply arrives. An *open*
//! loop sends on a fixed schedule whatever the replies do, and times every
//! request from the instant it was **due**, so a stall charges the requests
//! that queued behind it (no coordinated omission).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use consensus_types::CommandId;
use net::wire::{frame_bytes, Event, FrameBuffer, WireMessage};
use reactor::{Events, Interest, Poller, Token, Waker};

use crate::rig::gen::{ConnGen, Op};
use crate::rig::trace::{Span, Tracer};

/// The client connections, as the driver needs them. The benchmark uses
/// [`TcpSockets`]; tests substitute a fake that can stall.
pub trait Sockets {
    /// Number of connections.
    fn count(&self) -> usize;
    /// Appends one frame to `conn`'s output buffer.
    fn queue(&mut self, conn: usize, frame: &[u8]);
    /// Writes as much buffered output as the connections accept, then moves
    /// whatever has arrived into `inbox[conn]`. Returns the bytes read.
    fn pump(&mut self, inbox: &mut [FrameBuffer]) -> io::Result<usize>;
    /// Blocks until a connection is readable (or writable, with output
    /// pending) or `deadline` has come.
    fn wait_until(&mut self, deadline: Instant) -> io::Result<()>;
}

/// A precise wake-up for the poller. `epoll_wait` takes whole milliseconds,
/// rounded up, but an open loop at thousands of requests per second must hit
/// its next send time within tens of microseconds, or the rig's own lateness
/// ends up in the latency it reports. A helper thread sleeps on the
/// nanosecond clock and trips a [`Waker`] registered with the poller.
struct Alarm {
    waker: Arc<Waker>,
    /// Dropping the sender ends the thread.
    deadlines: Option<mpsc::Sender<Instant>>,
    thread: Option<JoinHandle<()>>,
    /// The deadline the thread is sleeping towards, if any.
    armed: Option<Instant>,
}

/// Deadlines nearer than this go through the [`Alarm`]; later ones can live
/// with millisecond rounding.
const ALARM_HORIZON: Duration = Duration::from_millis(10);
const ALARM_TOKEN: Token = Token(u64::MAX);

impl Alarm {
    fn new(poller: &Poller) -> io::Result<Self> {
        let waker = Arc::new(Waker::new()?);
        poller.register(waker.fd(), ALARM_TOKEN, Interest::READABLE)?;
        let (deadlines, rx) = mpsc::channel::<Instant>();
        let thread = {
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || {
                for deadline in rx {
                    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                    if waker.wake().is_err() {
                        return;
                    }
                }
            })
        };
        Ok(Self { waker, deadlines: Some(deadlines), thread: Some(thread), armed: None })
    }

    fn arm(&mut self, deadline: Instant) {
        if self.armed != Some(deadline) {
            self.armed = Some(deadline);
            if let Some(deadlines) = &self.deadlines {
                // A send only fails once the thread is gone; the poller's
                // own timeout still bounds the wait then.
                let _ = deadlines.send(deadline);
            }
        }
    }

    fn fired(&mut self) {
        self.waker.drain();
        self.armed = None;
    }
}

impl Drop for Alarm {
    fn drop(&mut self) {
        self.deadlines = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Nonblocking TCP connections multiplexed on one epoll instance.
pub struct TcpSockets {
    streams: Vec<TcpStream>,
    /// Bytes queued per connection and how many of them are already written.
    out: Vec<(Vec<u8>, usize)>,
    /// Whether the connection is currently registered for writability.
    wants_write: Vec<bool>,
    poller: Poller,
    events: Events,
    alarm: Alarm,
}

impl TcpSockets {
    /// Connects one socket to each address.
    pub fn connect(addrs: &[SocketAddr]) -> io::Result<Self> {
        let poller = Poller::new()?;
        let mut streams = Vec::with_capacity(addrs.len());
        for (index, addr) in addrs.iter().enumerate() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.register(stream.as_raw_fd(), Token(index as u64), Interest::READABLE)?;
            streams.push(stream);
        }
        Ok(Self {
            out: vec![(Vec::new(), 0); streams.len()],
            wants_write: vec![false; streams.len()],
            streams,
            alarm: Alarm::new(&poller)?,
            poller,
            events: Events::with_capacity(8),
        })
    }
}

impl Sockets for TcpSockets {
    fn count(&self) -> usize {
        self.streams.len()
    }

    fn queue(&mut self, conn: usize, frame: &[u8]) {
        self.out[conn].0.extend_from_slice(frame);
    }

    fn pump(&mut self, inbox: &mut [FrameBuffer]) -> io::Result<usize> {
        let mut chunk = [0u8; 64 * 1024];
        let mut read = 0;
        for (conn, stream) in self.streams.iter_mut().enumerate() {
            let (buf, written) = &mut self.out[conn];
            while *written < buf.len() {
                match stream.write(&buf[*written..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => *written += n,
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                    Err(err) => return Err(err),
                }
            }
            if *written == buf.len() {
                buf.clear();
                *written = 0;
            }
            // One read per pass keeps the connections fair; level-triggered
            // polling brings the driver back for the rest.
            match stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    inbox[conn].extend(&chunk[..n]);
                    read += n;
                }
                Err(err)
                    if matches!(
                        err.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(err) => return Err(err),
            }
        }
        Ok(read)
    }

    fn wait_until(&mut self, deadline: Instant) -> io::Result<()> {
        for (conn, stream) in self.streams.iter().enumerate() {
            let pending = !self.out[conn].0.is_empty();
            if pending != self.wants_write[conn] {
                let interest = if pending { Interest::BOTH } else { Interest::READABLE };
                self.poller.reregister(stream.as_raw_fd(), Token(conn as u64), interest)?;
                self.wants_write[conn] = pending;
            }
        }
        let timeout = deadline.saturating_duration_since(Instant::now());
        if timeout < ALARM_HORIZON {
            self.alarm.arm(deadline);
        }
        self.poller.wait(&mut self.events, Some(timeout))?;
        if self.events.iter().any(|event| event.token == ALARM_TOKEN) {
            self.alarm.fired();
        }
        Ok(())
    }
}

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Keep `in_flight` requests outstanding, split evenly over connections.
    Closed { in_flight: usize },
    /// Send `rate` requests per second on a fixed schedule, alternating
    /// connections.
    Open { rate: f64 },
}

/// Share of requests whose span a traced slice records. Recording all of
/// them would hold a million spans per run; a fixed 1-in-N sample keeps
/// whole requests and a small file.
const TRACE_SAMPLE: u64 = 32;

struct Pending {
    due: Instant,
    slot: Option<usize>,
    expected: Option<Option<u64>>,
}

/// What one slice of the measured window saw.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Submit→reply (closed loop) or due→reply (open loop) times, ms.
    pub latencies_ms: Vec<f64>,
    /// When the slice's first and last reply were decoded, in seconds since
    /// the window opened.
    pub first_reply_s: f64,
    pub last_reply_s: f64,
    /// Whether sampled request spans were recorded during this slice.
    pub traced: bool,
}

/// Counts over the driver's whole life, preload included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub sent: u64,
    pub replied: u64,
    pub aborted: u64,
    /// Replies whose `output` was not the value the driver last wrote.
    pub wrong_output: u64,
}

pub struct Driver<S: Sockets> {
    sockets: S,
    inbox: Vec<FrameBuffer>,
    gens: Vec<ConnGen>,
    pace: Pace,
    pending: HashMap<CommandId, Pending>,
    in_flight: Vec<usize>,
    /// Open loop: when the next request is due, and how many were scheduled.
    next_due: Option<Instant>,
    scheduled: u64,
    /// Open loop: how long after its due time each request was sent, µs.
    pub late_us: Vec<f64>,
    pub totals: Totals,
}

impl Slice {
    /// Replies per second, measured between the slice's first and last
    /// reply, so an open loop reports the rate it achieved, not a count
    /// over a nominal interval.
    pub fn throughput_ops_s(&self) -> f64 {
        let replies = self.latencies_ms.len();
        if replies < 2 {
            return 0.0;
        }
        (replies - 1) as f64 / (self.last_reply_s - self.first_reply_s)
    }
}

impl<S: Sockets> Driver<S> {
    /// A driver over `sockets`, one generator per connection.
    pub fn new(sockets: S, gens: Vec<ConnGen>, pace: Pace) -> Self {
        assert_eq!(sockets.count(), gens.len(), "one generator per connection");
        Self {
            inbox: (0..gens.len()).map(|_| FrameBuffer::new()).collect(),
            in_flight: vec![0; gens.len()],
            sockets,
            gens,
            pace,
            pending: HashMap::new(),
            next_due: None,
            scheduled: 0,
            late_us: Vec::new(),
            totals: Totals::default(),
        }
    }

    /// Requests sent and not yet answered or aborted.
    #[cfg(test)]
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    fn send(&mut self, conn: usize, op: Op, due: Instant) -> io::Result<()> {
        let id = op.command.id();
        let frame = frame_bytes(&WireMessage::<()>::ClientRequest { cmd: op.command })?;
        self.sockets.queue(conn, &frame);
        self.pending.insert(id, Pending { due, slot: op.slot, expected: op.expected });
        self.in_flight[conn] += 1;
        self.totals.sent += 1;
        Ok(())
    }

    /// Decodes every complete reply frame, stamps it, checks it and records
    /// it. Returns the number of frames handled.
    fn handle_replies(
        &mut self,
        mut record: impl FnMut(CommandId, Instant, Instant),
    ) -> io::Result<usize> {
        let mut handled = 0;
        for conn in 0..self.inbox.len() {
            while let Some(event) = self.inbox[conn].next_msg::<Event>()? {
                let decoded = Instant::now();
                handled += 1;
                let (command, output) = match event {
                    Event::ClientReply { command, output, .. } => (command, Some(output)),
                    Event::ClientAbort { command, .. } => (command, None),
                    Event::Decisions { .. } | Event::StatsReply { .. } => continue,
                };
                let Some(pending) = self.pending.remove(&command) else { continue };
                self.in_flight[conn] -= 1;
                if let Some(slot) = pending.slot {
                    self.gens[conn].release(slot);
                }
                match output {
                    None => self.totals.aborted += 1,
                    Some(output) => {
                        self.totals.replied += 1;
                        if pending.expected.is_some_and(|expected| expected != output) {
                            self.totals.wrong_output += 1;
                        }
                        record(command, pending.due, decoded);
                    }
                }
            }
        }
        Ok(handled)
    }

    /// Writes every key once: the shared pool through connection 0, each
    /// private pool through its own connection. Returns when all are
    /// answered, so the measured stream only ever overwrites.
    pub fn preload(&mut self, window: usize) -> io::Result<()> {
        let per_conn = (window / self.gens.len()).max(1);
        let mut exhausted = false;
        while !(exhausted && self.pending.is_empty()) {
            exhausted = true;
            for conn in 0..self.gens.len() {
                while self.in_flight[conn] < per_conn {
                    let Some(op) = self.gens[conn].next_preload() else { break };
                    self.send(conn, op, Instant::now())?;
                }
                exhausted &= self.in_flight[conn] < per_conn;
            }
            let read = self.sockets.pump(&mut self.inbox)?;
            if self.handle_replies(|_, _, _| {})? == 0 && read == 0 {
                self.sockets.wait_until(Instant::now() + Duration::from_millis(100))?;
            }
        }
        Ok(())
    }

    /// Sends what the pacing mode says is due at `now`; returns when the
    /// next request is due, if that is known.
    fn issue(&mut self, now: Instant) -> io::Result<Option<Instant>> {
        match self.pace {
            Pace::Closed { in_flight } => {
                let conns = self.gens.len();
                let per_conn = (in_flight / conns).max(1);
                for conn in 0..conns {
                    while self.in_flight[conn] < per_conn {
                        let op = self.gens[conn].next_op();
                        self.send(conn, op, now)?;
                    }
                }
                Ok(None)
            }
            Pace::Open { rate } => {
                let interval = Duration::from_secs_f64(1.0 / rate);
                let mut due = *self.next_due.get_or_insert(now);
                while due <= now {
                    let conn = (self.scheduled % self.gens.len() as u64) as usize;
                    let op = self.gens[conn].next_op();
                    self.send(conn, op, due)?;
                    self.late_us.push((now - due).as_secs_f64() * 1e6);
                    self.scheduled += 1;
                    due += interval;
                }
                self.next_due = Some(due);
                Ok(Some(due))
            }
        }
    }

    /// Generates load for `duration`, cut into `slices` equal slices, and
    /// returns what each slice saw. With a tracer, every other slice also
    /// records a span for one request in [`TRACE_SAMPLE`].
    pub fn run(
        &mut self,
        duration: Duration,
        slices: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<Vec<Slice>> {
        let start = Instant::now();
        let end = start + duration;
        let slice_len = duration / slices as u32;
        let mut out = vec![Slice::default(); slices];
        if tracer.is_some() {
            out.iter_mut().step_by(2).for_each(|slice| slice.traced = true);
        }
        self.late_us.clear();
        loop {
            let now = Instant::now();
            if now >= end {
                return Ok(out);
            }
            let next_due = self.issue(now)?;
            let read = self.sockets.pump(&mut self.inbox)?;
            let handled = self.handle_replies(|command, due, decoded| {
                let index = ((decoded - start).as_nanos() / slice_len.as_nanos().max(1)) as usize;
                let Some(slice) = out.get_mut(index) else { return };
                slice.last_reply_s = (decoded - start).as_secs_f64();
                if slice.latencies_ms.is_empty() {
                    slice.first_reply_s = slice.last_reply_s;
                }
                slice.latencies_ms.push((decoded - due).as_secs_f64() * 1e3);
                if let Some(tracer) = tracer.as_deref_mut() {
                    if slice.traced && command.sequence() % TRACE_SAMPLE == 0 {
                        tracer.push(Span {
                            name: "driver.request",
                            start_ns: tracer.ns_at(due),
                            end_ns: tracer.ns_at(decoded),
                            command: Some(command),
                            parent: None,
                        });
                    }
                }
            })?;
            if handled == 0 && read == 0 {
                self.sockets.wait_until(next_due.map_or(end, |due| due.min(end)))?;
            }
        }
    }

    /// Stops sending and waits for the outstanding replies; returns how many
    /// were still unanswered after `timeout`.
    pub fn drain(&mut self, timeout: Duration) -> io::Result<usize> {
        let deadline = Instant::now() + timeout;
        while !self.pending.is_empty() && Instant::now() < deadline {
            let read = self.sockets.pump(&mut self.inbox)?;
            if self.handle_replies(|_, _, _| {})? == 0 && read == 0 {
                self.sockets
                    .wait_until(deadline.min(Instant::now() + Duration::from_millis(50)))?;
            }
        }
        Ok(self.pending.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_types::{Decision, DecisionPath, LatencyBreakdown, NodeId, Timestamp};

    /// An in-memory replica that answers every request at once, except that
    /// its socket accepts no bytes during one stall window.
    struct FakeSockets {
        stall: Option<(Instant, Instant)>,
        out: Vec<u8>,
        requests: FrameBuffer,
        store: HashMap<u64, u64>,
    }

    impl Sockets for FakeSockets {
        fn count(&self) -> usize {
            1
        }

        fn queue(&mut self, _conn: usize, frame: &[u8]) {
            self.out.extend_from_slice(frame);
        }

        fn pump(&mut self, inbox: &mut [FrameBuffer]) -> io::Result<usize> {
            let now = Instant::now();
            if self.stall.is_some_and(|(from, to)| now >= from && now < to) {
                return Ok(0); // WouldBlock: the bytes stay queued
            }
            self.requests.extend(&self.out);
            self.out.clear();
            let mut read = 0;
            while let Some(WireMessage::ClientRequest { cmd }) =
                self.requests.next_msg::<WireMessage<()>>()?
            {
                let output = self.store.insert(cmd.key().expect("put"), cmd.value());
                let decision = Decision {
                    command: cmd.id(),
                    timestamp: Timestamp::ZERO,
                    path: DecisionPath::Fast,
                    proposed_at: 0,
                    executed_at: 0,
                    breakdown: LatencyBreakdown::default(),
                };
                let reply =
                    Event::ClientReply { from: NodeId(0), command: cmd.id(), output, decision };
                let frame = frame_bytes(&reply)?;
                read += frame.len();
                inbox[0].extend(&frame);
            }
            Ok(read)
        }

        fn wait_until(&mut self, deadline: Instant) -> io::Result<()> {
            let timeout = deadline.saturating_duration_since(Instant::now());
            std::thread::sleep(timeout.min(Duration::from_micros(200)));
            Ok(())
        }
    }

    fn fake(stall: Option<(Instant, Instant)>) -> FakeSockets {
        FakeSockets { stall, out: Vec::new(), requests: FrameBuffer::new(), store: HashMap::new() }
    }

    #[test]
    fn open_loop_times_requests_from_when_they_were_due() {
        // 1000 requests per second for 120 ms; the socket stalls from 30 ms
        // to 90 ms. A request due at 40 ms cannot leave before 90 ms, so its
        // latency must be near 50 ms even though its reply follows its
        // (late) departure at once.
        let start = Instant::now();
        let stall = (start + Duration::from_millis(30), start + Duration::from_millis(90));
        let gens = vec![ConnGen::new(1, 0, 0, 256)];
        let mut driver = Driver::new(fake(Some(stall)), gens, Pace::Open { rate: 1000.0 });
        let slices = driver.run(Duration::from_millis(120), 4, None).unwrap();
        assert_eq!(driver.drain(Duration::from_secs(1)).unwrap(), 0);

        // Slice 0 (0–30 ms) saw no stall; nothing is answered during the
        // stall; slice 3 (90–120 ms) receives the backlog.
        let quiet = slices[0].latencies_ms.iter().copied().fold(0.0, f64::max);
        let worst = slices[3].latencies_ms.iter().copied().fold(0.0, f64::max);
        assert!(quiet < 20.0, "unstalled requests answer at once, saw {quiet} ms");
        assert!(worst >= 45.0, "the stall must be charged to queued requests, saw {worst} ms");
        assert!(slices[1].latencies_ms.len() + slices[2].latencies_ms.len() <= 12);
        // The schedule never slipped: about one request per millisecond.
        assert!((100..=125).contains(&driver.totals.sent), "sent {}", driver.totals.sent);
        assert_eq!(driver.totals.replied, driver.totals.sent);
        assert_eq!(driver.totals.wrong_output, 0);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_checks_outputs() {
        let gens = vec![ConnGen::new(5, 0, 10, 64)];
        let mut driver = Driver::new(fake(None), gens, Pace::Closed { in_flight: 8 });
        driver.preload(8).unwrap();
        assert_eq!(driver.totals.sent, 64 + crate::rig::gen::SHARED_POOL);
        assert_eq!(driver.outstanding(), 0);
        let slices = driver.run(Duration::from_millis(30), 3, None).unwrap();
        assert!(driver.outstanding() <= 8);
        assert_eq!(driver.drain(Duration::from_secs(1)).unwrap(), 0);
        let measured: usize = slices.iter().map(|s| s.latencies_ms.len()).sum();
        assert!(measured > 100, "an instant replica answers thousands, saw {measured}");
        assert_eq!(driver.totals.replied, driver.totals.sent);
        assert_eq!(driver.totals.wrong_output, 0, "every put overwrote what the driver wrote");
    }

    #[test]
    fn a_wrong_output_is_counted() {
        let mut sockets = fake(None);
        // The replica already holds a value the driver never wrote.
        let key = ConnGen::new(9, 1, 0, 1).next_preload().unwrap().command.key().unwrap();
        sockets.store.insert(key, 12345);
        let mut driver =
            Driver::new(sockets, vec![ConnGen::new(9, 1, 0, 1)], Pace::Closed { in_flight: 1 });
        driver.preload(1).unwrap();
        assert_eq!(driver.totals.wrong_output, 1);
    }
}
