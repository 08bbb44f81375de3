//! Batched socket backends: many datagrams per syscall.
//!
//! The runtime's datapath cost at flood rates is dominated by syscalls —
//! one `recv_from` and one `send_to` per frame. [`BatchSocket`] abstracts
//! the socket so the reactor that owns it can drain **up to N datagrams
//! per syscall** and every reactor can flush a whole wakeup's queued sends
//! in one call:
//!
//! - [`MmsgSocket`] (Linux): `recvmmsg(2)` / `sendmmsg(2)` through a
//!   minimal hand-declared FFI surface (the workspace builds offline, so
//!   no `libc` crate; the declarations match the stable 64-bit Linux ABI).
//!   `recvmmsg` runs with `MSG_WAITFORONE`: on a blocking socket it waits
//!   for the first datagram under the socket's read timeout, then drains
//!   whatever else is already queued without blocking again; on the
//!   reactor's non-blocking socket, which it reads only once `ppoll` says
//!   it is readable, it never blocks at all.
//! - [`PortableSocket`] (everywhere): the one-at-a-time fallback, which
//!   still receives into pooled slabs (fixing the old per-frame `Vec`
//!   allocation) and shares the batched send accounting path.
//!
//! Both backends fill [`PoolBuf`]s from the shared [`BufferPool`], so the
//! choice of backend changes *how many* syscalls move the bytes, never
//! what the reactor observes: the equivalence test in
//! `tests/transport_batch.rs` holds the two to identical delivered frame
//! sequences.

use crate::pool::{BufferPool, PoolBuf};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Upper bound on frames per syscall, either direction (the kernel caps
/// `vlen` at `UIO_MAXIOV` anyway; 256 keeps the FFI scratch arrays at a
/// comfortable ~50KB of stack while letting a busy single-core host — where
/// every syscall is also a potential context switch — move big batches).
pub const MAX_BATCH: usize = 256;

/// Max datagrams a reactor drains per receive syscall.
pub const RECV_BATCH: usize = 32;

/// Max frames per send syscall when a reactor flushes its queue.
pub const SEND_BATCH: usize = 32;

/// Slabs in each buffer pool: the receive pool's slabs hold one max-size
/// UDP datagram each, so more of them let more frames wait in a hub
/// shard's inbox without falling back to heap buffers; the send pool's
/// hold one encoded frame each, and outnumber a send batch.
pub const POOL_SLABS: usize = 64;

const _: () = assert!(RECV_BATCH <= MAX_BATCH && SEND_BATCH <= MAX_BATCH && SEND_BATCH < POOL_SLABS);

/// Socket options for the batched datapath, carried in
/// [`NodeOptions`](crate::NodeOptions).
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Requested kernel socket buffer size (`SO_RCVBUF`/`SO_SNDBUF`),
    /// applied at spawn where the platform allows (Linux; silently
    /// clamped to `net.core.{r,w}mem_max`). Batched senders burst far
    /// faster than the old syscall-per-frame path, so the receive buffer
    /// is what absorbs a flush while the receiver drains.
    pub socket_bufs: usize,
    /// Force the portable one-at-a-time backend even where `mmsg` is
    /// available (the backend-equivalence tests use this).
    pub force_portable: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            socket_bufs: 4 * 1024 * 1024,
            force_portable: false,
        }
    }
}

/// Put the calling thread under the `SCHED_BATCH` policy (Linux; no-op
/// elsewhere, and harmless if the kernel refuses). Every reactor thread
/// calls this: the scheduler stops letting every datagram arrival
/// preempt the burst that produced it, so on busy (especially
/// single-core) hosts the datapath moves timeslice-sized batches instead
/// of context-switching per frame. Timer fidelity degrades by at most a
/// scheduling slice, far below SRM's timer scales.
pub fn enter_batch_scheduling() {
    #[cfg(target_os = "linux")]
    ffi::set_batch_scheduling();
}

/// Ask the kernel for `bytes`-sized socket buffers on `sock` (both
/// directions). Best-effort: platforms without the hook, or kernels that
/// clamp the request, leave the socket usable with its default buffers.
/// Clones of `sock` share the underlying socket, so one call at spawn
/// covers the read path and every reactor's send path.
pub fn configure_socket_buffers(sock: &UdpSocket, bytes: usize) {
    #[cfg(target_os = "linux")]
    ffi::set_buffer_sizes(sock, bytes);
    #[cfg(not(target_os = "linux"))]
    let _ = (sock, bytes);
}

/// A reactor's doorbell: ringing it ends the reactor's current or next
/// [`wait`]. An eventfd on Linux; elsewhere nothing, and the wait polls.
pub(crate) struct Bell {
    #[cfg(target_os = "linux")]
    fd: std::fs::File,
}

impl Bell {
    pub(crate) fn new() -> io::Result<Bell> {
        Ok(Bell {
            #[cfg(target_os = "linux")]
            fd: ffi::eventfd_file()?,
        })
    }

    /// Wake the reactor. Adding to an eventfd cannot fail short of 2^64
    /// unread rings.
    pub(crate) fn ring(&self) {
        #[cfg(target_os = "linux")]
        let _ = io::Write::write(&mut &self.fd, &1u64.to_ne_bytes());
    }
}

/// Sleep until `sock` (when given) is readable, `bell` rings, or `timeout`
/// passes: one `ppoll(2)`, whose `timespec` keeps the timeout to the
/// nanosecond. A ring is consumed here, before the caller drains what it
/// announced. Returns whether the socket is readable.
pub(crate) fn wait(sock: Option<&UdpSocket>, bell: &Bell, timeout: Duration) -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        let sock_fd = sock.map_or(-1, |s| s.as_raw_fd());
        let [readable, rung] = ffi::poll_readable([sock_fd, bell.fd.as_raw_fd()], timeout);
        if rung {
            let _ = io::Read::read(&mut &bell.fd, &mut [0u8; 8]);
        }
        readable
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = bell;
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        sock.is_some()
    }
}

/// One outgoing frame of a flush batch.
#[derive(Clone, Copy, Debug)]
pub struct SendFrame<'a> {
    /// Where it goes.
    pub dest: SocketAddr,
    /// The encoded envelope bytes.
    pub data: &'a [u8],
}

/// One received buffer: a single datagram, or — when the kernel handed us
/// a `UDP_GRO`-coalesced super-datagram — several equal-size frames
/// back-to-back. `seg_size == 0` means the buffer is one frame; otherwise
/// split at `seg_size` boundaries (the final frame may be shorter).
#[derive(Debug)]
pub struct RecvFrame {
    /// The filled buffer.
    pub buf: PoolBuf,
    /// Coalesced segment size, 0 for a plain datagram.
    pub seg_size: u32,
}

impl RecvFrame {
    /// How many logical frames this buffer carries.
    pub fn frame_count(&self) -> usize {
        let len = self.buf.len();
        match self.seg_size as usize {
            0 => 1,
            s => len.div_ceil(s).max(1),
        }
    }
}

/// A socket that moves datagrams in batches.
///
/// `recv_batch` blocks for the first datagram under the socket's
/// configured read timeout (timeouts surface as
/// [`io::ErrorKind::WouldBlock`]/`TimedOut`, exactly like `recv_from`),
/// appends up to `max` filled buffers to `out`, and returns how many
/// arrived (a buffer may carry several coalesced frames — see
/// [`RecvFrame`]). `send_batch` attempts every frame and pushes one
/// result per frame onto `results` in order — per-destination accounting
/// stays exact even when the kernel takes many frames in one syscall.
pub trait BatchSocket: Send {
    /// Receive up to `max` datagrams into pooled buffers.
    fn recv_batch(
        &mut self,
        pool: &BufferPool,
        max: usize,
        out: &mut Vec<RecvFrame>,
    ) -> io::Result<usize>;

    /// Send every frame, appending one outcome per frame to `results`.
    fn send_batch(&mut self, frames: &[SendFrame<'_>], results: &mut Vec<io::Result<()>>);

    /// Stable name for logs and metrics (`"mmsg"` or `"portable"`).
    fn backend_name(&self) -> &'static str;

    /// Datagrams the kernel dropped because this socket's receive buffer
    /// was full, cumulative, as of the last datagram received
    /// (`SO_RXQ_OVFL`; a dropped GRO super-datagram counts once). Zero
    /// where the backend cannot tell.
    fn kernel_drops(&self) -> u64 {
        0
    }
}

/// Build the best backend for this platform (or the portable one when
/// `opts.force_portable` is set).
pub fn make_backend(sock: UdpSocket, opts: &BatchOptions) -> Box<dyn BatchSocket> {
    #[cfg(target_os = "linux")]
    {
        if !opts.force_portable {
            return Box::new(MmsgSocket::new(sock));
        }
    }
    let _ = opts;
    Box::new(PortableSocket::new(sock))
}

/// The portable one-datagram-per-syscall backend.
///
/// Still pooled: a dry pool falls back to receiving into a persistent
/// scratch slab and copying out only the filled prefix (the old path's
/// copy, without its per-frame allocation).
pub struct PortableSocket {
    sock: UdpSocket,
    scratch: Vec<u8>,
}

impl PortableSocket {
    /// Wrap an already-configured socket.
    pub fn new(sock: UdpSocket) -> Self {
        PortableSocket {
            sock,
            scratch: vec![0u8; crate::reactor::MAX_DATAGRAM],
        }
    }
}

impl BatchSocket for PortableSocket {
    fn recv_batch(
        &mut self,
        pool: &BufferPool,
        _max: usize,
        out: &mut Vec<RecvFrame>,
    ) -> io::Result<usize> {
        match pool.try_take() {
            Some(mut buf) => {
                let (n, _from) = self.sock.recv_from(buf.slab_mut())?;
                buf.set_filled(n);
                out.push(RecvFrame { buf, seg_size: 0 });
            }
            None => {
                let (n, _from) = self.sock.recv_from(&mut self.scratch)?;
                pool.note_miss();
                out.push(RecvFrame {
                    buf: PoolBuf::copied_from(&self.scratch[..n]),
                    seg_size: 0,
                });
            }
        }
        Ok(1)
    }

    fn send_batch(&mut self, frames: &[SendFrame<'_>], results: &mut Vec<io::Result<()>>) {
        for f in frames {
            results.push(self.sock.send_to(f.data, f.dest).map(|_| ()));
        }
    }

    fn backend_name(&self) -> &'static str {
        "portable"
    }
}

/// Most segments one `UDP_SEGMENT` send may carry (the kernel's
/// `UDP_MAX_SEGMENTS`).
#[cfg(target_os = "linux")]
const GSO_MAX_SEGS: usize = 64;
/// Byte budget for one GSO super-datagram, under the UDP length field
/// with room for headers.
#[cfg(target_os = "linux")]
const GSO_MAX_BYTES: usize = 60_000;

/// The Linux `recvmmsg`/`sendmmsg` backend, with UDP generic segmentation
/// offload on top: a run of equal-size frames to one destination goes to
/// the kernel as a *single* `sendmsg` carrying a `UDP_SEGMENT` control
/// message — one traversal of the UDP stack for up to `GSO_MAX_SEGS`
/// frames — and the receive side opts into `UDP_GRO`, so such a run
/// arrives as one coalesced buffer ([`RecvFrame::seg_size`]).
#[cfg(target_os = "linux")]
pub struct MmsgSocket {
    sock: UdpSocket,
    /// Pooled slabs checked out and waiting to be filled; topped up from
    /// the pool each call, so unconsumed slabs carry over syscall-free.
    ready: Vec<PoolBuf>,
    scratch: Vec<u8>,
    /// Cleared the first time the kernel rejects a `UDP_SEGMENT` send;
    /// every later run falls back to `sendmmsg` silently.
    gso_ok: bool,
    /// The socket's cumulative drop count, as the last datagram carried it.
    drops: u32,
}

#[cfg(target_os = "linux")]
impl MmsgSocket {
    /// Wrap an already-configured socket, opting it into `UDP_GRO` and
    /// `SO_RXQ_OVFL` (best-effort: an old kernel just never coalesces, or
    /// never reports its drops).
    pub fn new(sock: UdpSocket) -> Self {
        ffi::enable_rx_options(&sock);
        MmsgSocket {
            sock,
            ready: Vec::new(),
            scratch: vec![0u8; crate::reactor::MAX_DATAGRAM],
            gso_ok: true,
            drops: 0,
        }
    }
}

#[cfg(target_os = "linux")]
impl BatchSocket for MmsgSocket {
    fn recv_batch(
        &mut self,
        pool: &BufferPool,
        max: usize,
        out: &mut Vec<RecvFrame>,
    ) -> io::Result<usize> {
        let want = max.clamp(1, MAX_BATCH);
        while self.ready.len() < want {
            match pool.try_take() {
                Some(b) => self.ready.push(b),
                None => break,
            }
        }
        if self.ready.is_empty() {
            // Pool dry: single-buffer fallback through the scratch slab,
            // so a flood that outruns the pool degrades instead of
            // stalling. Must go through `recvmsg` (not `recv_from`): this
            // socket has GRO enabled, and a coalesced buffer read without
            // its control message would silently merge frames.
            let (n, seg) = ffi::recvmsg_single(&self.sock, &mut self.scratch, &mut self.drops)?;
            pool.note_miss();
            out.push(RecvFrame {
                buf: PoolBuf::copied_from(&self.scratch[..n]),
                seg_size: seg,
            });
            return Ok(1);
        }
        let mut segs = [0u32; MAX_BATCH];
        let got = ffi::recvmmsg_into(&self.sock, &mut self.ready, &mut segs, &mut self.drops)?;
        for (buf, seg) in self.ready.drain(..got).zip(segs.iter()) {
            out.push(RecvFrame { buf, seg_size: *seg });
        }
        Ok(got)
    }

    fn send_batch(&mut self, frames: &[SendFrame<'_>], results: &mut Vec<io::Result<()>>) {
        let mut i = 0;
        while i < frames.len() {
            // A GSO run: equal-size frames to one destination. Control
            // traffic rarely forms one; a flood is nothing else.
            let len = frames[i].data.len();
            let mut j = i + 1;
            if self.gso_ok && len > 0 && len <= u16::MAX as usize {
                let max_run = GSO_MAX_SEGS.min(GSO_MAX_BYTES / len).max(1);
                while j < frames.len()
                    && j - i < max_run
                    && frames[j].dest == frames[i].dest
                    && frames[j].data.len() == len
                {
                    j += 1;
                }
            }
            if j - i >= 2 {
                match ffi::sendmsg_gso(&self.sock, &frames[i..j], len as u16) {
                    Ok(()) => {
                        for _ in i..j {
                            results.push(Ok(()));
                        }
                        i = j;
                        continue;
                    }
                    Err(e) if is_gso_unsupported(&e) => {
                        // Kernel without UDP_SEGMENT: remember, and let
                        // the run fall through to sendmmsg below.
                        self.gso_ok = false;
                    }
                    Err(e) => {
                        // The whole super-datagram failed as one syscall;
                        // charge every frame in the run.
                        for _ in i..j {
                            results.push(Err(io::Error::new(e.kind(), e.to_string())));
                        }
                        i = j;
                        continue;
                    }
                }
            }
            // No run (or GSO unavailable): take this frame together with
            // everything up to the next GSO-able run via sendmmsg.
            let mut k = i + 1;
            while k < frames.len() {
                let l = frames[k].data.len();
                let run_ahead = self.gso_ok
                    && l > 0
                    && l <= u16::MAX as usize
                    && k + 1 < frames.len()
                    && frames[k + 1].dest == frames[k].dest
                    && frames[k + 1].data.len() == l;
                if run_ahead {
                    break;
                }
                k += 1;
            }
            for chunk in frames[i..k].chunks(MAX_BATCH) {
                ffi::sendmmsg_all(&self.sock, chunk, results);
            }
            i = k;
        }
    }

    fn backend_name(&self) -> &'static str {
        "mmsg"
    }

    fn kernel_drops(&self) -> u64 {
        u64::from(self.drops)
    }
}

/// Errors that mean "this kernel cannot do `UDP_SEGMENT`", as opposed to
/// a frame-level failure.
#[cfg(target_os = "linux")]
fn is_gso_unsupported(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(code) if code == 22 || code == 95 || code == 92)
    // EINVAL, EOPNOTSUPP, ENOPROTOOPT
}

/// The minimal FFI surface for `recvmmsg`/`sendmmsg`, the reactor's
/// eventfd and its `ppoll`.
///
/// The only `unsafe` in the crate lives here (the crate is otherwise
/// `deny(unsafe_code)`): syscall wrappers over hand-declared structs
/// matching the 64-bit Linux ABI (x86_64 and aarch64, glibc and musl —
/// the layouts coincide for zero-initialized headers). Size assertions at
/// the call sites guard against drift.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod ffi {
    use super::SendFrame;
    use crate::pool::PoolBuf;
    use std::fs::File;
    use std::io;
    use std::mem::MaybeUninit;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::unix::io::{AsRawFd, FromRawFd};
    use std::time::Duration;

    /// `MSG_WAITFORONE`: block (per `SO_RCVTIMEO`) for the first
    /// datagram, then turn on `MSG_DONTWAIT` for the rest of the batch.
    const MSG_WAITFORONE: i32 = 0x10000;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// Big enough for any `sockaddr_in`/`sockaddr_in6`.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct SockAddrStorage {
        data: [u8; 128],
    }

    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    /// `setsockopt`/cmsg code: attach the socket's cumulative drop count
    /// to every received datagram.
    const SO_RXQ_OVFL: i32 = 40;
    const SCHED_BATCH: i32 = 3;
    const SOL_UDP: i32 = 17;
    /// `setsockopt`/cmsg codes for UDP generic segmentation offload.
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    /// Per-message control buffer: `CMSG_SPACE(sizeof(int))` each for the
    /// GRO segment size and the drop count, with slack.
    const CTRL_LEN: usize = 64;
    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2_000_000;
    const POLLIN: i16 = 1;

    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    /// `struct cmsghdr` on 64-bit Linux; data follows, aligned to usize.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct CMsgHdr {
        len: usize,
        level: i32,
        ty: i32,
    }

    /// Control buffer aligned like a cmsghdr.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct CtrlBuf {
        data: [u8; CTRL_LEN],
    }

    extern "C" {
        fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8)
            -> i32;
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
        fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
    }

    /// A fresh non-blocking, close-on-exec eventfd, owned by a `File` so
    /// std does its reads, writes and close.
    pub(super) fn eventfd_file() -> io::Result<File> {
        // SAFETY: no pointers cross the call.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a descriptor this call just opened; the `File`
        // becomes its only owner.
        Ok(unsafe { File::from_raw_fd(fd) })
    }

    /// Wait up to `timeout`, to the nanosecond, for any of `fds` to become
    /// readable (a negative fd is skipped); `[bool; 2]` says which did.
    /// An error or an error condition on a descriptor counts as readable
    /// — the read that follows reports it — and a signal as nothing ready.
    pub(super) fn poll_readable(fds: [i32; 2], timeout: Duration) -> [bool; 2] {
        let mut polled = fds.map(|fd| PollFd { fd, events: POLLIN, revents: 0 });
        let ts = TimeSpec {
            sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `polled` and `ts` are live locals for the duration of
        // the call, and `nfds` is their length; a null sigmask keeps the
        // thread's signal mask.
        let r = unsafe { ppoll(polled.as_mut_ptr(), 2, &ts, std::ptr::null()) };
        if r <= 0 {
            return [false; 2];
        }
        polled.map(|p| p.revents != 0)
    }

    /// Receive one buffer into `buf`, returning `(len, gro_segment_size)`
    /// and updating `drops` (see [`parse_ctrl`]). The GRO-aware stand-in
    /// for `recv_from`: a coalesced super-buffer arrives with its segment
    /// size instead of silently merged.
    pub(super) fn recvmsg_single(
        sock: &UdpSocket,
        buf: &mut [u8],
        drops: &mut u32,
    ) -> io::Result<(usize, u32)> {
        assert_abi();
        let mut iov = IoVec { base: buf.as_mut_ptr(), len: buf.len() };
        let mut ctrl = CtrlBuf { data: [0; CTRL_LEN] };
        let mut msg = MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: ctrl.data.as_mut_ptr(),
            controllen: CTRL_LEN,
            flags: 0,
        };
        loop {
            // SAFETY: every pointer in `msg` references a live local
            // borrowed for the duration of the call.
            let r = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, 0) };
            if r >= 0 {
                return Ok((r as usize, parse_ctrl(&ctrl, msg.controllen, drops)));
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// Opt the socket into receiving GRO-coalesced UDP and per-datagram
    /// drop counts (best-effort, each).
    pub(super) fn enable_rx_options(sock: &UdpSocket) {
        let one: i32 = 1;
        for (level, opt) in [(SOL_UDP, UDP_GRO), (SOL_SOCKET, SO_RXQ_OVFL)] {
            // SAFETY: optval points at a live i32; optlen matches.
            unsafe {
                setsockopt(sock.as_raw_fd(), level, opt, one.to_ne_bytes().as_ptr(), 4);
            }
        }
    }

    /// Send a run of equal-size frames to one destination as a single
    /// `UDP_SEGMENT` super-datagram: the iovecs gather the frames, the
    /// control message tells the kernel where the datagram boundaries go,
    /// and the whole run costs one traversal of the UDP stack.
    pub(super) fn sendmsg_gso(
        sock: &UdpSocket,
        run: &[SendFrame<'_>],
        seg: u16,
    ) -> io::Result<()> {
        assert_abi();
        debug_assert!(run.len() <= super::GSO_MAX_SEGS);
        let mut iovecs = [IoVec { base: std::ptr::null_mut(), len: 0 }; super::GSO_MAX_SEGS];
        let n = run.len().min(super::GSO_MAX_SEGS);
        for (iov, f) in iovecs.iter_mut().zip(run.iter().take(n)) {
            // The kernel never writes through a send iovec; the cast only
            // satisfies the shared msghdr layout.
            *iov = IoVec { base: f.data.as_ptr() as *mut u8, len: f.data.len() };
        }
        let mut addr = SockAddrStorage { data: [0; 128] };
        let alen = write_sockaddr(run[0].dest, &mut addr);
        let mut ctrl = CtrlBuf { data: [0; CTRL_LEN] };
        let hdr_len = std::mem::size_of::<CMsgHdr>();
        let cm = CMsgHdr { len: hdr_len + 2, level: SOL_UDP, ty: UDP_SEGMENT };
        ctrl.data[0..8].copy_from_slice(&cm.len.to_ne_bytes());
        ctrl.data[8..12].copy_from_slice(&cm.level.to_ne_bytes());
        ctrl.data[12..16].copy_from_slice(&cm.ty.to_ne_bytes());
        ctrl.data[hdr_len..hdr_len + 2].copy_from_slice(&seg.to_ne_bytes());
        let msg = MsgHdr {
            name: addr.data.as_mut_ptr(),
            namelen: alen,
            iov: iovecs.as_mut_ptr(),
            iovlen: n,
            control: ctrl.data.as_mut_ptr(),
            // CMSG_SPACE(2): header + data, padded to alignment.
            controllen: hdr_len + 8,
            flags: 0,
        };
        loop {
            // SAFETY: every pointer in `msg` references a live local or a
            // frame borrowed for the duration of the call.
            let r = unsafe { sendmsg(sock.as_raw_fd(), &msg, 0) };
            if r >= 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// `SCHED_BATCH` for the calling thread (pid 0); a policy downgrade,
    /// so it needs no privileges and failure costs nothing.
    pub(super) fn set_batch_scheduling() {
        let param = SchedParam { priority: 0 };
        // SAFETY: param is a live, correctly-sized sched_param for the
        // duration of the call; pid 0 targets only the calling thread.
        unsafe {
            sched_setscheduler(0, SCHED_BATCH, &param);
        }
    }

    /// Best-effort `SO_RCVBUF`/`SO_SNDBUF`; the kernel clamps the request
    /// to `net.core.{r,w}mem_max`, so failure is not actionable.
    pub(super) fn set_buffer_sizes(sock: &UdpSocket, bytes: usize) {
        let v = i32::try_from(bytes).unwrap_or(i32::MAX);
        for opt in [SO_RCVBUF, SO_SNDBUF] {
            // SAFETY: optval points at a live i32 for the duration of the
            // call; optlen matches its size.
            unsafe {
                setsockopt(
                    sock.as_raw_fd(),
                    SOL_SOCKET,
                    opt,
                    v.to_ne_bytes().as_ptr(),
                    4,
                );
            }
        }
    }

    /// One layout guard at first use: the hand-declared headers must have
    /// the 64-bit Linux sizes or every syscall below corrupts memory.
    fn assert_abi() {
        assert_eq!(std::mem::size_of::<MsgHdr>(), 56, "msghdr ABI drift");
        assert_eq!(std::mem::size_of::<MMsgHdr>(), 64, "mmsghdr ABI drift");
        assert_eq!(std::mem::size_of::<IoVec>(), 16, "iovec ABI drift");
    }

    /// The header of one message carried by one iovec.
    fn one_iov_hdr(
        (name, namelen): (*mut u8, u32),
        iov: *mut IoVec,
        (control, controllen): (*mut u8, usize),
    ) -> MMsgHdr {
        MMsgHdr { hdr: MsgHdr { name, namelen, iov, iovlen: 1, control, controllen, flags: 0 }, len: 0 }
    }

    /// Serialize `dest` into `storage`, returning the sockaddr length.
    fn write_sockaddr(dest: SocketAddr, storage: &mut SockAddrStorage) -> u32 {
        let d = &mut storage.data;
        match dest {
            SocketAddr::V4(a) => {
                d[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                d[2..4].copy_from_slice(&a.port().to_be_bytes());
                d[4..8].copy_from_slice(&a.ip().octets());
                d[8..16].fill(0);
                16
            }
            SocketAddr::V6(a) => {
                d[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                d[2..4].copy_from_slice(&a.port().to_be_bytes());
                d[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
                d[8..24].copy_from_slice(&a.ip().octets());
                d[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                28
            }
        }
    }

    /// Fill the leading `bufs` from the socket: waits for the first
    /// datagram (on a blocking socket, under its read timeout), then
    /// drains whatever else is queued. Returns how many buffers were
    /// filled; `segs[i]` carries the GRO segment size for coalesced
    /// buffers (0 for plain datagrams), and `drops` the socket's drop
    /// count as the last of them carried it.
    pub(super) fn recvmmsg_into(
        sock: &UdpSocket,
        bufs: &mut [PoolBuf],
        segs: &mut [u32],
        drops: &mut u32,
    ) -> io::Result<usize> {
        assert_abi();
        let n = bufs.len().min(super::MAX_BATCH).min(segs.len());
        // Scratch for `MAX_BATCH` entries, of which only the `n` handed to
        // the kernel are written: a call costs its batch, not 36 KB of
        // zeroed stack that would also push the reactor's working set out
        // of the L1 cache.
        let mut iovecs = [const { MaybeUninit::<IoVec>::uninit() }; super::MAX_BATCH];
        let mut ctrls = [const { MaybeUninit::<CtrlBuf>::uninit() }; super::MAX_BATCH];
        let mut hdrs = [const { MaybeUninit::<MMsgHdr>::uninit() }; super::MAX_BATCH];
        for (i, buf) in bufs.iter_mut().take(n).enumerate() {
            let slab = buf.slab_mut();
            let iov = iovecs[i].write(IoVec { base: slab.as_mut_ptr(), len: slab.len() });
            let ctrl = ctrls[i].write(CtrlBuf { data: [0; CTRL_LEN] }).data.as_mut_ptr();
            hdrs[i].write(one_iov_hdr((std::ptr::null_mut(), 0), iov, (ctrl, CTRL_LEN)));
        }
        // SAFETY: `hdrs[..n]` is a written, valid mmsghdr array
        // (`MaybeUninit` is layout-transparent); every iovec and control
        // pointer references a distinct live slab or written stack entry
        // for the duration of the call; no pointer outlives this function.
        let r = unsafe {
            recvmmsg(
                sock.as_raw_fd(),
                hdrs.as_mut_ptr().cast(),
                n as u32,
                MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if r < 0 {
            return Err(io::Error::last_os_error());
        }
        let got = r as usize;
        for i in 0..got {
            // SAFETY: the kernel filled at most the `n` entries written above.
            let (h, ctrl) = unsafe { (hdrs[i].assume_init_ref(), ctrls[i].assume_init_ref()) };
            bufs[i].set_filled(h.len as usize);
            segs[i] = parse_ctrl(ctrl, h.hdr.controllen, drops);
        }
        Ok(got)
    }

    /// Walk a received control buffer: return the GRO segment size (0
    /// when absent, i.e. an ordinary single datagram), and store the
    /// socket's cumulative drop count in `drops` when the kernel attached
    /// one (it does only once the count is non-zero).
    fn parse_ctrl(ctrl: &CtrlBuf, controllen: usize, drops: &mut u32) -> u32 {
        let hdr_len = std::mem::size_of::<CMsgHdr>();
        let mut seg = 0;
        let mut at = 0usize;
        while at + hdr_len <= controllen.min(CTRL_LEN) {
            let d = &ctrl.data;
            let len = usize::from_ne_bytes(d[at..at + 8].try_into().expect("8 bytes"));
            let level = i32::from_ne_bytes(d[at + 8..at + 12].try_into().expect("4 bytes"));
            let ty = i32::from_ne_bytes(d[at + 12..at + 16].try_into().expect("4 bytes"));
            if len < hdr_len || at + len > CTRL_LEN {
                break;
            }
            if len >= hdr_len + 4 {
                let v = d[at + hdr_len..at + hdr_len + 4].try_into().expect("4 bytes");
                match (level, ty) {
                    (SOL_UDP, UDP_GRO) => seg = u32::try_from(i32::from_ne_bytes(v)).unwrap_or(0),
                    (SOL_SOCKET, SO_RXQ_OVFL) => *drops = u32::from_ne_bytes(v),
                    _ => {}
                }
            }
            // CMSG_ALIGN to the next header.
            at += (len + 7) & !7;
        }
        seg
    }

    /// Send every frame of `chunk` (at most [`super::MAX_BATCH`]),
    /// pushing one outcome per frame in order. `sendmmsg` stops at the
    /// first failing frame, so the loop records that frame's error and
    /// resumes with the rest — identical per-destination accounting to a
    /// `send_to` loop.
    pub(super) fn sendmmsg_all(
        sock: &UdpSocket,
        chunk: &[SendFrame<'_>],
        results: &mut Vec<io::Result<()>>,
    ) {
        assert_abi();
        let n = chunk.len().min(super::MAX_BATCH);
        // As in `recvmmsg_into`, only the `n` entries in use are written.
        let mut iovecs = [const { MaybeUninit::<IoVec>::uninit() }; super::MAX_BATCH];
        let mut hdrs = [const { MaybeUninit::<MMsgHdr>::uninit() }; super::MAX_BATCH];
        let mut addrs = [const { MaybeUninit::<SockAddrStorage>::uninit() }; super::MAX_BATCH];
        for (i, f) in chunk.iter().take(n).enumerate() {
            let addr = addrs[i].write(SockAddrStorage { data: [0; 128] });
            let namelen = write_sockaddr(f.dest, addr);
            // The kernel never writes through a send iovec; the cast only
            // satisfies the shared msghdr layout.
            let iov = iovecs[i].write(IoVec { base: f.data.as_ptr() as *mut u8, len: f.data.len() });
            hdrs[i].write(one_iov_hdr((addr.data.as_mut_ptr(), namelen), iov, (std::ptr::null_mut(), 0)));
        }
        let mut done = 0usize;
        while done < n {
            // SAFETY: as in `recvmmsg_into`; `hdrs[done..n]` are written,
            // and their name/iov pointers reference the written stack
            // entries above, which outlive the call.
            let r = unsafe {
                sendmmsg(
                    sock.as_raw_fd(),
                    hdrs.as_mut_ptr().cast::<MMsgHdr>().wrapping_add(done),
                    (n - done) as u32,
                    0,
                )
            };
            if r > 0 {
                for _ in 0..r as usize {
                    results.push(Ok(()));
                }
                done += r as usize;
            } else {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                // The first unsent frame caused this error; charge it and
                // move on so the rest of the batch still goes out.
                results.push(Err(e));
                done += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let to = b.local_addr().unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (a, b, to)
    }

    /// Split received buffers into logical frames (undoing GRO coalescing).
    fn flatten(got: &[RecvFrame]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for r in got {
            match r.seg_size as usize {
                0 => frames.push(r.buf.to_vec()),
                s => frames.extend(r.buf.chunks(s).map(|c| c.to_vec())),
            }
        }
        frames
    }

    fn exercise_backend(
        mut tx: Box<dyn BatchSocket>,
        mut rx: Box<dyn BatchSocket>,
        to: SocketAddr,
        frames: Vec<Vec<u8>>,
    ) {
        let send: Vec<SendFrame<'_>> =
            frames.iter().map(|f| SendFrame { dest: to, data: f }).collect();
        let mut results = Vec::new();
        tx.send_batch(&send, &mut results);
        assert_eq!(results.len(), frames.len());
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");

        let pool = BufferPool::new(4, 2048);
        let mut got: Vec<RecvFrame> = Vec::new();
        while got.iter().map(RecvFrame::frame_count).sum::<usize>() < frames.len() {
            rx.recv_batch(&pool, 8, &mut got).unwrap();
        }
        assert_eq!(flatten(&got), frames, "delivered sequence differs");
    }

    fn varied_frames() -> Vec<Vec<u8>> {
        (0..10u8).map(|i| vec![i; 3 + i as usize]).collect()
    }

    #[test]
    fn portable_roundtrip_preserves_order_and_bytes() {
        let (a, b, to) = pair();
        exercise_backend(
            Box::new(PortableSocket::new(a)),
            Box::new(PortableSocket::new(b)),
            to,
            varied_frames(),
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmsg_roundtrip_preserves_order_and_bytes() {
        let (a, b, to) = pair();
        exercise_backend(
            Box::new(MmsgSocket::new(a)),
            Box::new(MmsgSocket::new(b)),
            to,
            varied_frames(),
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmsg_gso_run_roundtrips_equal_size_frames() {
        // Equal-size frames to one destination form a GSO run on the send
        // side; whether the receiver sees one coalesced buffer (GRO) or
        // kernel-segmented datagrams, the flattened sequence must match.
        let (a, b, to) = pair();
        let frames: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 100]).collect();
        exercise_backend(
            Box::new(MmsgSocket::new(a)),
            Box::new(MmsgSocket::new(b)),
            to,
            frames,
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmsg_pool_dry_falls_back_to_exact_copies() {
        let (a, b, to) = pair();
        let mut tx = MmsgSocket::new(a);
        let mut rx = MmsgSocket::new(b);
        let pool = BufferPool::new(1, 2048);
        let _hold = pool.try_take().unwrap(); // keep the pool dry
        let data = b"starved".to_vec();
        let mut results = Vec::new();
        tx.send_batch(&[SendFrame { dest: to, data: &data }], &mut results);
        assert!(results[0].is_ok());
        let mut got = Vec::new();
        rx.recv_batch(&pool, 4, &mut got).unwrap();
        assert_eq!(&*got[0].buf, b"starved");
        assert!(pool.stats().1 >= 1, "dry pool must count a miss");
    }
}
