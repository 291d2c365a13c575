//! The load generator: per connection one writer thread pipelining raw
//! `proto` frames over localhost TCP and one reader thread blocked on
//! the replies; both sleep or block, never spin.
//!
//! Two loops over the same connection. *Closed*: at most
//! [`WINDOW_PER_CONN`] alerts unresolved, where an alert resolves when it
//! reaches the sink — the pipeline sets the pace. *Open*: frame `i` is
//! due at `start + i / rate` whatever the pipeline does, and every
//! latency is timed from that due time, so a stall is charged to all the
//! frames it delays, not only the one that saw it.

use crate::procfs::LOADGEN_PREFIX;
use crate::sink::Sink;
use crate::workload::{AlertSpec, Generator, Kind, Traffic, Workload, CONNS, STORM_GROUP};
use simba_gateway::proto::{self, Frame, Header, HEADER_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed loop: unresolved alerts allowed per connection.
pub const WINDOW_PER_CONN: i64 = 128;
/// How often a writer with a full window looks at it again. (A socket
/// read timeout would do, but the kernel rounds those up to a whole
/// scheduler tick — up to 4 ms.)
const WINDOW_POLL: Duration = Duration::from_micros(100);
/// Most frames written at once, so one write never outruns the socket
/// buffers by much when the generator is catching up.
const MAX_BURST: i64 = 256;
/// After a phase's last frame: how long to wait for stragglers.
const SETTLE: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warm,
    Closed,
    Open,
}

#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warm: Duration,
    pub closed: Duration,
    pub open: Duration,
}

/// One frame the loadgen wrote, at index `id / CONNS` of its
/// connection's log. Times are ns since the run epoch. Kept to 24 bytes:
/// a run writes millions, and they sit in the measured process.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Open loop: when the frame was due. Otherwise: when it was written.
    pub ref_ns: u64,
    /// When the gateway's reply was read; 0 if none was.
    pub reply_ns: u64,
    /// Open loop: how long after its due time the frame was written.
    pub lag_us: u32,
    pub kind: Kind,
    pub phase: Phase,
    pub nacked: bool,
}

/// Bytes of benchmark bookkeeping per frame, netted out of peak RSS.
pub const SENT_BYTES: usize = std::mem::size_of::<Sent>();

impl Sent {
    pub fn acked(&self) -> bool {
        self.reply_ns != 0 && !self.nacked
    }
}

/// Phase hand-shake between the coordinator and the connections: the
/// coordinator publishes the phase's start time, then everyone meets.
pub struct PhaseSync {
    barrier: Barrier,
    start_ns: AtomicU64,
}

impl PhaseSync {
    pub fn new() -> PhaseSync {
        PhaseSync {
            barrier: Barrier::new(CONNS + 1),
            start_ns: AtomicU64::new(0),
        }
    }

    /// Coordinator: once every connection is ready, start the next
    /// phase slightly ahead of now, so all see its start in their future.
    pub fn release(&self, epoch: Instant) -> u64 {
        self.barrier.wait();
        let start_ns = (epoch.elapsed() + Duration::from_millis(2)).as_nanos() as u64;
        self.start_ns.store(start_ns, Ordering::SeqCst);
        self.barrier.wait();
        start_ns
    }

    /// Coordinator: wait until every connection has finished its run.
    pub fn join(&self) {
        self.barrier.wait();
    }

    fn wait_start(&self) -> u64 {
        self.barrier.wait();
        self.barrier.wait();
        self.start_ns.load(Ordering::SeqCst)
    }
}

/// The open-loop schedule of one connection: frame `i` is due at
/// `start + offset + i × interval`. Connections interleave by `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    start_ns: u64,
    offset_ns: u64,
    interval_ns: u64,
    pub frames: u64,
}

impl Schedule {
    pub fn new(start_ns: u64, conn: usize, rate_per_s: u64, duration: Duration) -> Schedule {
        let interval_ns = 1_000_000_000 * CONNS as u64 / rate_per_s;
        Schedule {
            start_ns,
            offset_ns: interval_ns * conn as u64 / CONNS as u64,
            interval_ns,
            frames: duration.as_nanos() as u64 / interval_ns,
        }
    }

    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + self.offset_ns + i * self.interval_ns
    }

    /// How many frames are due at `now_ns` (all of `0..due`).
    pub fn due_by(&self, now_ns: u64) -> u64 {
        match now_ns.checked_sub(self.start_ns + self.offset_ns) {
            Some(elapsed) => (elapsed / self.interval_ns + 1).min(self.frames),
            None => 0,
        }
    }
}

/// When and how the gateway answered one frame; the reader's `i`-th
/// stamp belongs to the connection's `i`-th frame (one worker serves a
/// connection, in order).
#[derive(Debug, Clone, Copy)]
struct ReplyStamp {
    at_ns: u64,
    nacked: bool,
}

/// The reading half: blocks in `read` (no timeout, so a reply is stamped
/// when it arrives, not at the next poll) until the gateway closes.
fn read_replies(
    conn: usize,
    mut stream: TcpStream,
    epoch: Instant,
    sink: &Sink,
    replies_read: &AtomicU64,
) -> Vec<ReplyStamp> {
    let mut stamps = Vec::new();
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return stamps,
            Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("loadgen read failed: {e}"),
        }
        let at_ns = epoch.elapsed().as_nanos() as u64;
        let mut pos = 0;
        while inbuf.len() - pos >= HEADER_LEN {
            let header_bytes: &[u8; HEADER_LEN] = inbuf[pos..pos + HEADER_LEN]
                .try_into()
                .expect("slice of header length");
            let header = Header::parse(header_bytes, proto::DEFAULT_MAX_PAYLOAD)
                .expect("the gateway sends well-formed headers");
            let end = pos + HEADER_LEN + header.payload_len as usize;
            if inbuf.len() < end {
                break;
            }
            let frame = proto::decode_payload(&header, &inbuf[pos + HEADER_LEN..end])
                .expect("the gateway sends well-formed frames");
            pos = end;
            let (id, nacked) = match frame {
                Frame::Ack { seq } => (seq, false),
                Frame::Nack { seq, .. } => (seq, true),
                other => panic!("unexpected reply frame {other:?}"),
            };
            assert_eq!(
                id,
                id_of(conn, stamps.len()),
                "replies come back in the order sent"
            );
            stamps.push(ReplyStamp { at_ns, nacked });
            if nacked {
                // A refused alert will never reach the sink: give its
                // window slot back (the checker counts the refusal).
                sink.add_outstanding(conn, -1);
            }
        }
        inbuf.drain(..pos);
        replies_read.store(stamps.len() as u64, Ordering::Release);
    }
}

/// The writing half of one connection.
struct Writer<'a> {
    conn: usize,
    stream: TcpStream,
    epoch: Instant,
    sink: &'a Sink,
    replies_read: &'a AtomicU64,
    generator: Generator,
    sent: Vec<Sent>,
    outbuf: Vec<u8>,
}

impl Writer<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn stage(&mut self, alert: &AlertSpec, phase: Phase, ref_ns: u64, now_ns: u64) {
        debug_assert_eq!(alert.id, id_of(self.conn, self.sent.len()));
        alert.encode(&mut self.outbuf);
        self.sent.push(Sent {
            ref_ns,
            reply_ns: 0,
            lag_us: u32::try_from(now_ns.saturating_sub(ref_ns) / 1_000).unwrap_or(u32::MAX),
            kind: alert.kind,
            phase,
            nacked: false,
        });
    }

    fn flush(&mut self) {
        self.stream
            .write_all(&self.outbuf)
            .expect("the gateway keeps the connection open");
        self.outbuf.clear();
    }

    fn closed_loop(&mut self, phase: Phase, group: i64, until_ns: u64) {
        loop {
            let now_ns = self.now_ns();
            if now_ns >= until_ns {
                break;
            }
            let room = WINDOW_PER_CONN - self.sink.outstanding(self.conn);
            let n = (room / group * group).min(MAX_BURST);
            if n > 0 {
                for _ in 0..n {
                    let alert = self.generator.next_alert();
                    self.stage(&alert, phase, now_ns, now_ns);
                }
                self.sink.add_outstanding(self.conn, n);
                self.flush();
            } else {
                std::thread::sleep(WINDOW_POLL);
            }
        }
    }

    fn open_loop(&mut self, schedule: Schedule) {
        let mut next = 0;
        while next < schedule.frames {
            let now_ns = self.now_ns();
            let burst = (schedule.due_by(now_ns) - next).min(MAX_BURST as u64);
            if burst > 0 {
                for i in next..next + burst {
                    let alert = self.generator.next_alert();
                    self.stage(&alert, Phase::Open, schedule.due_ns(i), now_ns);
                }
                next += burst;
                self.flush();
            } else {
                std::thread::sleep(Duration::from_nanos(schedule.due_ns(next) - now_ns));
            }
        }
    }

    /// Waits for the phase's stragglers: replies, and (closed loop) the
    /// window emptying, so the next phase starts on an idle pipeline.
    fn settle(&mut self, wait_for_sink: bool) {
        let deadline = Instant::now() + SETTLE;
        while Instant::now() < deadline
            && (self.replies_read.load(Ordering::Acquire) < self.sent.len() as u64
                || (wait_for_sink && self.sink.outstanding(self.conn) > 0))
        {
            std::thread::sleep(WINDOW_POLL);
        }
        // An alert lost in this phase must not shrink the next one's window.
        self.sink.reset_outstanding(self.conn);
    }
}

fn id_of(conn: usize, seq: usize) -> u64 {
    (seq * CONNS + conn) as u64
}

/// What every connection of a run is told.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub addr: SocketAddr,
    pub workload: Workload,
    pub seed: u64,
    pub phases: Phases,
    /// Zero of every `*_ns` stamp of the run.
    pub epoch: Instant,
}

/// One connection's whole run: warm-up, closed loop, open loop. Returns
/// every frame it wrote, indexed by sequence number.
pub fn run_connection(conn: usize, plan: Plan, sink: &Sink, sync: &PhaseSync) -> Vec<Sent> {
    let Plan {
        addr,
        workload,
        seed,
        phases,
        epoch,
    } = plan;
    let stream = TcpStream::connect(addr).expect("connect to the gateway");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let replies_read = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let reader = {
            let stream = stream.try_clone().expect("clone the socket for the reader");
            let replies_read = &replies_read;
            std::thread::Builder::new()
                .name(format!("{LOADGEN_PREFIX}-{conn}-rx"))
                .spawn_scoped(scope, move || {
                    read_replies(conn, stream, epoch, sink, replies_read)
                })
                .expect("spawn a loadgen reader")
        };
        let mut w = Writer {
            conn,
            stream,
            epoch,
            sink,
            replies_read: &replies_read,
            generator: Generator::new(workload, seed, conn),
            sent: Vec::new(),
            outbuf: Vec::new(),
        };
        let group = if workload.traffic == Traffic::StormGroups {
            STORM_GROUP as i64
        } else {
            1
        };
        for (phase, length) in [(Phase::Warm, phases.warm), (Phase::Closed, phases.closed)] {
            let start_ns = sync.wait_start();
            w.closed_loop(phase, group, start_ns + length.as_nanos() as u64);
            w.settle(true);
        }
        let start_ns = sync.wait_start();
        w.open_loop(Schedule::new(
            start_ns,
            conn,
            workload.open_rate_per_s,
            phases.open,
        ));
        w.settle(false);
        sync.barrier.wait();
        // Closing the write half makes the gateway close the connection,
        // which ends the reader.
        w.stream
            .shutdown(Shutdown::Write)
            .expect("close the write half");
        let stamps = reader.join().expect("the loadgen reader does not panic");
        for (frame, stamp) in w.sent.iter_mut().zip(stamps) {
            frame.reply_ns = stamp.at_ns;
            frame.nacked = stamp.nacked;
        }
        w.sent
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_frames_are_due_on_a_fixed_grid_whatever_the_clock_says() {
        let s = Schedule::new(1_000_000, 1, 10_000, Duration::from_secs(1));
        // 10 000/s over two connections: 200 µs apart, second one offset by 100 µs.
        assert_eq!(s.frames, 5_000);
        assert_eq!(s.due_ns(0), 1_100_000);
        assert_eq!(s.due_ns(7), 1_100_000 + 7 * 200_000);
        assert_eq!(s.due_by(0), 0);
        assert_eq!(s.due_by(1_099_999), 0);
        assert_eq!(s.due_by(1_100_000), 1);
        assert_eq!(s.due_by(1_100_000 + 399_999), 2);
        assert_eq!(s.due_by(u64::MAX / 2), 5_000);
    }

    #[test]
    fn a_late_write_is_stamped_with_its_due_time_not_its_send_time() {
        // A peer that accepts and never answers; the schedule started
        // 30 ms ago, so the first write finds a backlog of due frames.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let _peer = listener.accept().expect("accept");
        let epoch = Instant::now() - Duration::from_millis(100);
        let sink = Sink::new(epoch, 1, 0, 0);
        let replies_read = AtomicU64::new(0);
        let mut w = Writer {
            conn: 1,
            stream,
            epoch,
            sink: &sink,
            replies_read: &replies_read,
            generator: Generator::new(crate::workload::WORKLOADS[0], 7, 1),
            sent: Vec::new(),
            outbuf: Vec::new(),
        };
        let start_ns = w.now_ns() - 30_000_000;
        let schedule = Schedule::new(start_ns, 1, 2_000, Duration::from_millis(40));
        w.open_loop(schedule);
        assert_eq!(w.sent.len() as u64, schedule.frames);
        for (i, frame) in w.sent.iter().enumerate() {
            assert_eq!(
                frame.ref_ns,
                schedule.due_ns(i as u64),
                "frame {i} is timed from its due time"
            );
            assert_eq!(frame.phase, Phase::Open);
        }
        // The backlog went out in one burst: the earliest frame is the
        // latest, by about the 30 ms head start, and lateness shrinks by
        // one interval per frame.
        assert!(w.sent[0].lag_us >= 29_000, "{}", w.sent[0].lag_us);
        assert_eq!(w.sent[0].lag_us - w.sent[10].lag_us, 10_000);
        assert!(w.sent.last().expect("frames").lag_us < w.sent[0].lag_us);
    }
}
